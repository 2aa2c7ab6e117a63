"""The settlement kernel against an independent case analysis.

``settle`` and ``settle_patterns`` share one kernel whose payout is the
winner bid plus the collected failure costs. The oracle below derives every
field by walking the execution order, and the payout by its own case
analysis, so a slip in the kernel's accounting shows up as an exact
mismatch. The throughput sweep's cost column is checked against ``settle``
for every outcome pattern.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _scenarios import behavior_patterns, random_transaction, rescripted
from ofasim.auction import (
    AuctionTransaction,
    Behavior,
    GasSchedule,
    SolverOperation,
    admit_operations,
)
from ofasim.settlement import (
    OpOutcome,
    SettlementResult,
    failure_cost,
    settle,
    settle_patterns,
    solver_payoff,
)
from ofasim.simulation import ThroughputSweep, median_failure_costs


def case_analysis_settle(tx: AuctionTransaction) -> SettlementResult:
    """Settlement with the payout derived per outcome case, not summed."""
    gamma = tx.schedule.gamma
    price = tx.schedule.gas_price
    executed = []
    reverted = []
    winner = None
    for op in tx.solver_ops:
        if winner is not None:
            executed.append((op.solver_id, OpOutcome.SKIPPED))
        elif op.behavior is Behavior.SUCCEED:
            winner = op
            executed.append((op.solver_id, OpOutcome.SUCCEEDED))
        else:
            reverted.append(op)
            executed.append((op.solver_id, OpOutcome.REVERTED))

    winner_bid = winner.bid if winner is not None else None
    costs = {
        op.solver_id: failure_cost(op.bid, winner_bid, op.gas_reserved, gamma)
        for op in reverted
    }
    solver_gas_used = sum(op.gas_used for op in reverted)
    if winner is not None:
        solver_gas_used += winner.gas_used
    gas_charges = {op.solver_id: price * op.gas_used for op in reverted}
    if winner is not None:
        gas_charges[winner.solver_id] = price * (
            tx.schedule.user_gas_consumed + winner.gas_used
        )

    payoffs = {}
    for op in tx.solver_ops:
        sid = op.solver_id
        if winner is not None and sid == winner.solver_id:
            value = tx.private_values.get(sid, Fraction(0))
            payoffs[sid] = value - op.bid - gas_charges[sid]
        elif sid in costs:
            payoffs[sid] = -costs[sid] - gas_charges[sid]
        else:
            payoffs[sid] = Fraction(0)

    if winner is not None and not reverted:
        payout = winner.bid
    elif winner is not None:
        payout = winner.bid + sum(
            (op.bid - winner.bid) * Fraction(op.gas_reserved, gamma)
            for op in reverted
        )
    elif reverted:
        payout = sum(op.bid * Fraction(op.gas_reserved, gamma) for op in reverted)
    else:
        payout = Fraction(0)

    return SettlementResult(
        winner=winner.solver_id if winner is not None else None,
        executed=tuple(executed),
        failure_costs=costs,
        solver_payoffs=payoffs,
        beneficiary_payout=payout,
        total_gas_used=tx.schedule.user_gas_consumed + solver_gas_used,
        reverted_set=tuple(op.solver_id for op in reverted),
        winner_bid=winner_bid,
        gas_charges=gas_charges,
    )


def fields(result: SettlementResult) -> tuple:
    """Every field, with mappings as ordered item lists (reports keep order)."""
    return (
        result.winner,
        result.executed,
        list(result.failure_costs.items()),
        list(result.solver_payoffs.items()),
        result.beneficiary_payout,
        result.total_gas_used,
        result.reverted_set,
        result.winner_bid,
        list(result.gas_charges.items()),
    )


def first_success_script(tx: AuctionTransaction, k: int) -> list[Behavior]:
    """Ops before k revert and op k succeeds; later ops keep their scripting."""
    later = [op.behavior for op in tx.solver_ops[k + 1 :]]
    return [Behavior.REVERT] * k + [Behavior.SUCCEED] * (k < len(tx.solver_ops)) + later


def small_transaction(seed: int) -> AuctionTransaction:
    return random_transaction(np.random.default_rng(seed), min_solvers=0, max_solvers=6)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_settle_matches_the_case_analysis_for_every_pattern(seed):
    for variant in behavior_patterns(small_transaction(seed)):
        assert fields(settle(variant)) == fields(case_analysis_settle(variant))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_pattern_rows_equal_settling_the_rescripted_transaction(seed):
    tx = small_transaction(seed)
    rows = settle_patterns(tx)
    assert len(rows) == len(tx.solver_ops) + 1
    for k, row in enumerate(rows):
        assert fields(row) == fields(settle(rescripted(tx, first_success_script(tx, k))))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_solver_payoff_matches_the_report_for_every_pattern(seed):
    tx = small_transaction(seed)
    for variant in behavior_patterns(tx):
        result = settle(variant)
        for op in variant.solver_ops:
            value = variant.private_values.get(op.solver_id, Fraction(0))
            assert solver_payoff(result, op.solver_id, value) == (
                result.solver_payoffs[op.solver_id]
            )


def wide_transaction(n: int, seed: int) -> AuctionTransaction:
    """All n ops admitted; bids mix denominators and tie, gas ties, fees apply."""
    rng = np.random.default_rng(seed)
    gas = 1_000
    ops = []
    for i in range(n):
        denominator = int(rng.choice([1, 3, 8, 10, 100, 7_919]))
        ops.append(
            SolverOperation(
                solver_id=f"s{i:03d}",
                bid=Fraction(int(rng.integers(0, 50 * denominator)), denominator),
                gas_reserved=int(rng.choice([gas, gas // 2])),
                gas_used=int(rng.integers(0, gas // 2 + 1)),
            )
        )
    values = {op.solver_id: Fraction(int(rng.integers(0, 6_000)), 100) for op in ops[::2]}
    schedule = GasSchedule(
        tx_gas_limit=n * gas + 77_777, user_gas_consumed=77_777, gas_price=Fraction(3, 10**6)
    )
    tx = admit_operations(ops, schedule, values)
    assert len(tx.solver_ops) == n
    return tx


@pytest.mark.parametrize("n", [50, 200])
def test_pattern_rows_match_the_case_analysis_at_scale(n):
    tx = wide_transaction(n, seed=n)
    rows = settle_patterns(tx)
    assert len(rows) == n + 1
    for k, row in enumerate(rows):
        expected = case_analysis_settle(rescripted(tx, first_success_script(tx, k)))
        assert fields(row) == fields(expected)


@pytest.mark.parametrize(
    "model",
    [
        ThroughputSweep(gammas=(100_000, 200_000, 1_000_000, 2_100_000)),
        ThroughputSweep(
            gammas=(300_000, 1_500_000),
            gas_per_op=150_000,
            bid_high=Fraction("12.5"),
            bid_low=Fraction(3, 7),
        ),
        ThroughputSweep(gammas=(700_000,), bid_high=Fraction(9), bid_low=Fraction(9)),
    ],
    ids=["defaults", "uneven", "equal_bids"],
)
def test_throughput_cost_column_equals_settlement_for_every_pattern(model):
    for gamma in model.gammas:
        bids, median, costs = median_failure_costs(model, gamma)
        ops = tuple(
            SolverOperation(solver_id=f"s{i:03d}", bid=bid, gas_reserved=model.gas_per_op)
            for i, bid in enumerate(bids)
        )
        tx = AuctionTransaction(
            schedule=GasSchedule(tx_gas_limit=gamma, user_gas_consumed=0), solver_ops=ops
        )
        median_id = ops[median].solver_id
        # the median op and every op above it revert; pattern k is the first
        # success below it (k == len(bids): nobody succeeds)
        patterns = range(median + 1, len(bids) + 1)
        assert len(costs) == len(patterns)
        for cost, k in zip(costs, patterns):
            result = settle(rescripted(tx, first_success_script(tx, k)))
            assert result.failure_costs[median_id] == cost
