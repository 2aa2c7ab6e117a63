"""Tests for the settlement engine.

Covers the hand-computed single-auction values, the exact conservation and
floor identities, and the structural execution rules (first success wins,
later operations are skipped).
"""

from __future__ import annotations

import dataclasses
import itertools
from fractions import Fraction
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofasim.auction import (
    AuctionTransaction,
    Behavior,
    GasSchedule,
    SolverOperation,
)
from ofasim.settlement import (
    OpOutcome,
    SettlementResult,
    failure_cost,
    guaranteed_minimum,
    settle,
    settle_patterns,
    solver_payoff,
)

from _scenarios import behavior_patterns, random_transaction, rescripted

GAS_FREE = GasSchedule(tx_gas_limit=1_000_000, user_gas_consumed=0)


def op(sid, bid, gas=100_000, used=None, behavior=Behavior.REVERT):
    return SolverOperation(
        solver_id=sid,
        bid=Fraction(bid),
        gas_reserved=gas,
        gas_used=gas if used is None else used,
        behavior=behavior,
    )


def tx_of(*ops, schedule=GAS_FREE, values=None):
    return AuctionTransaction(
        schedule=schedule, solver_ops=tuple(ops), private_values=values or {}
    )


class TestFailureCost:
    def test_no_success_small_budget(self):
        assert failure_cost(Fraction(100), None, 100_000, 1_000_000) == 10

    def test_no_success_large_budget(self):
        assert failure_cost(Fraction(100), None, 100_000, 10_000_000) == 1

    def test_equal_bids_cost_nothing(self):
        assert failure_cost(Fraction(100), Fraction(100), 100_000, 1_000_000) == 0

    def test_bid_difference_scales_by_gas_share(self):
        assert failure_cost(Fraction(100), Fraction(80), 100_000, 1_000_000) == 2

    def test_result_is_exact(self):
        cost = failure_cost(Fraction(1), None, 1, 3)
        assert cost == Fraction(1, 3)

    def test_rejects_non_positive_gamma(self):
        with pytest.raises(ValueError, match="gamma"):
            failure_cost(Fraction(1), None, 1, 0)

    def test_rejects_gas_above_gamma(self):
        with pytest.raises(ValueError, match="gas_reserved"):
            failure_cost(Fraction(1), None, 11, 10)

    def test_rejects_successful_bid_above_failing_bid(self):
        with pytest.raises(ValueError, match="sequencing"):
            failure_cost(Fraction(10), Fraction(20), 1, 10)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((1.5, None, 1, 10), "failing_bid must be an int or a Fraction, got float"),
            ((Fraction(2), 0.5, 1, 10), "successful_bid must be an int or a Fraction, got float"),
            ((Fraction(1), None, True, 10), "gas_reserved must be an int, got bool"),
            ((Fraction(1), None, 1, True), "gamma must be an int, got bool"),
        ],
        ids=["float_bid", "float_successor", "bool_gas", "bool_gamma"],
    )
    def test_rejects_inexact_inputs(self, args, message):
        # each used to return a float or run a bool as 1
        with pytest.raises(ValueError, match=f"^{message}$"):
            failure_cost(*args)

    def test_homogeneous_in_gas_and_gamma(self):
        base = failure_cost(Fraction(7, 2), Fraction(1, 2), 123, 1_000)
        for k in (2, 10, 1_000):
            assert failure_cost(Fraction(7, 2), Fraction(1, 2), 123 * k, 1_000 * k) == base


class TestSettle:
    def test_single_successful_op_pays_its_bid(self):
        result = settle(tx_of(op("a", 100, behavior=Behavior.SUCCEED)))
        assert result.winner == "a"
        assert result.beneficiary_payout == 100
        assert result.failure_costs == {}

    def test_revert_then_success_mixes_bid_and_penalty(self):
        result = settle(
            tx_of(op("a", 100), op("b", 80, behavior=Behavior.SUCCEED))
        )
        assert result.failure_costs == {"a": Fraction(2)}
        assert result.beneficiary_payout == 82
        assert result.winner == "b"

    def test_all_reverted_pay_gas_weighted_bids(self):
        result = settle(tx_of(op("a", 100), op("b", 80)))
        assert result.winner is None
        assert result.beneficiary_payout == 18

    def test_empty_transaction(self):
        result = settle(tx_of())
        assert result.winner is None
        assert result.beneficiary_payout == 0
        assert result.executed == ()

    def test_ops_after_winner_are_skipped(self):
        result = settle(
            tx_of(
                op("a", 100),
                op("b", 90, behavior=Behavior.SUCCEED),
                op("c", 80, behavior=Behavior.SUCCEED),
                op("d", 70),
            )
        )
        assert result.executed == (
            ("a", OpOutcome.REVERTED),
            ("b", OpOutcome.SUCCEEDED),
            ("c", OpOutcome.SKIPPED),
            ("d", OpOutcome.SKIPPED),
        )
        assert result.solver_payoffs["c"] == 0
        assert result.solver_payoffs["d"] == 0
        assert "c" not in result.failure_costs

    def test_winner_pays_user_gas_and_its_own(self):
        schedule = GasSchedule(
            tx_gas_limit=1_100_000,
            user_gas_consumed=100_000,
            gas_price=Fraction(1, 1_000),
        )
        result = settle(
            tx_of(
                op("a", 100, used=40_000),
                op("b", 80, used=70_000, behavior=Behavior.SUCCEED),
                schedule=schedule,
            )
        )
        assert result.gas_charges["a"] == Fraction(40_000, 1_000)
        assert result.gas_charges["b"] == Fraction(170_000, 1_000)
        assert result.total_gas_used == 100_000 + 40_000 + 70_000

    def test_winner_payoff_uses_private_value(self):
        result = settle(
            tx_of(
                op("a", 100, behavior=Behavior.SUCCEED),
                values={"a": Fraction(120)},
            )
        )
        assert result.solver_payoffs["a"] == 20


class TestSolverPayoff:
    def test_winner_gas_free(self):
        result = settle(tx_of(op("a", 100, behavior=Behavior.SUCCEED)))
        assert solver_payoff(result, "a", Fraction(120)) == 20

    def test_skipped_is_zero(self):
        result = settle(
            tx_of(op("a", 100, behavior=Behavior.SUCCEED), op("b", 80))
        )
        assert solver_payoff(result, "b", Fraction(1_000)) == 0

    def test_reverted_pays_penalty_and_gas_fee(self):
        schedule = GasSchedule(
            tx_gas_limit=1_000_000,
            user_gas_consumed=0,
            gas_price=Fraction(3, 4_000_000),  # 7.5e-7
        )
        result = settle(tx_of(op("a", 100), schedule=schedule))
        assert solver_payoff(result, "a", Fraction(500)) == Fraction(-403, 40)

    def test_unknown_solver_raises(self):
        result = settle(tx_of(op("a", 100)))
        with pytest.raises(KeyError, match="unknown solver_id"):
            solver_payoff(result, "nobody", Fraction(0))

    def test_inexact_private_value_refused(self):
        # a float value used to give a float payoff
        result = settle(tx_of(op("a", 100, behavior=Behavior.SUCCEED)))
        with pytest.raises(ValueError, match="^private_value must be an int or a Fraction"):
            solver_payoff(result, "a", 120.5)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_settlement_report_for_every_solver(self, seed):
        tx = random_transaction(np.random.default_rng(seed))
        result = settle(tx)
        for solver_op in tx.solver_ops:
            sid = solver_op.solver_id
            value = tx.private_values.get(sid, Fraction(0))
            assert solver_payoff(result, sid, value) == result.solver_payoffs[sid]


class TestGuaranteedMinimum:
    def test_equal_bids_saturating_budget(self):
        ops = [op(f"s{i}", 100, gas=100_000) for i in range(10)]
        assert guaranteed_minimum(tx_of(*ops)) == 100

    def test_single_op(self):
        assert guaranteed_minimum(tx_of(op("a", 100))) == 10

    def test_empty(self):
        assert guaranteed_minimum(tx_of()) == 0

    def test_equals_all_revert_payout(self):
        ops = [op("a", 100, gas=300_000), op("b", 50, gas=200_000)]
        tx = tx_of(*ops)
        assert settle(tx).beneficiary_payout == guaranteed_minimum(tx)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_beneficiary_payout_conserves_bid_plus_penalties(seed):
    tx = random_transaction(np.random.default_rng(seed))
    result = settle(tx)
    collected = (result.winner_bid or Fraction(0)) + sum(
        result.failure_costs.values()
    )
    assert result.beneficiary_payout == collected


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_settlement_builds_what_the_constructor_builds(seed):
    # settle skips the constructor's copies; its results must not differ
    tx = random_transaction(np.random.default_rng(seed), min_solvers=0, max_solvers=6)
    for result in [settle(tx), *settle_patterns(tx)]:
        fields = {f.name: getattr(result, f.name) for f in dataclasses.fields(SettlementResult)}
        built = SettlementResult(**fields)
        for name, value in fields.items():
            assert value == getattr(built, name), name
            assert type(value) is type(getattr(built, name)), name
        for name in ("failure_costs", "solver_payoffs", "gas_charges"):
            assert type(fields[name]) is MappingProxyType, name
            with pytest.raises(TypeError):
                fields[name]["intruder"] = Fraction(1)
        assert type(result.executed) is type(result.reverted_set) is tuple


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_all_patterns_sit_on_or_above_the_floor(seed):
    tx = random_transaction(
        np.random.default_rng(seed), min_solvers=1, max_solvers=6
    )
    floor = guaranteed_minimum(tx)
    payouts = [settle(variant).beneficiary_payout for variant in behavior_patterns(tx)]
    assert min(payouts) == floor
    assert all(payout >= floor for payout in payouts)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_payout_is_maximized_by_top_bid_success(seed):
    tx = random_transaction(
        np.random.default_rng(seed), min_solvers=1, max_solvers=6
    )
    top_wins = rescripted(
        tx,
        [Behavior.SUCCEED] + [Behavior.REVERT] * (len(tx.solver_ops) - 1),
    )
    best = max(
        settle(variant).beneficiary_payout for variant in behavior_patterns(tx)
    )
    assert settle(top_wins).beneficiary_payout == best


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    successor_bid=st.fractions(
        min_value=Fraction(1, 100), max_value=Fraction(50), max_denominator=100
    ),
)
def test_any_successor_success_beats_no_success(seed, successor_bid):
    # Property: a reverted solver's penalty under any later success is
    # strictly below its penalty when nobody succeeds.
    rng = np.random.default_rng(seed)
    bid = successor_bid + Fraction(int(rng.integers(1, 100)), 2)
    gas = int(rng.integers(1, 1_000_001))
    with_success = failure_cost(bid, successor_bid, gas, 1_000_000)
    without = failure_cost(bid, None, gas, 1_000_000)
    assert with_success < without


def test_failure_cost_strictly_increases_with_gas_reserved():
    costs = [
        failure_cost(Fraction(100), Fraction(60), gas, 1_000_000)
        for gas in (10_000, 50_000, 200_000, 1_000_000)
    ]
    assert all(a < b for a, b in zip(costs, costs[1:]))


def test_exhaustive_three_op_settlements_account_every_case():
    ops = (op("a", 100, gas=300_000), op("b", 70, gas=200_000), op("c", 40, gas=100_000))
    tx = tx_of(*ops)
    for behaviors in itertools.product(list(Behavior), repeat=3):
        result = settle(rescripted(tx, behaviors))
        succeeded = [s for s, o in result.executed if o is OpOutcome.SUCCEEDED]
        assert len(succeeded) <= 1
        if succeeded:
            first = next(
                i for i, b in enumerate(behaviors) if b is Behavior.SUCCEED
            )
            assert result.winner == ops[first].solver_id
            # everything after the winner is skipped
            for sid, outcome in result.executed[first + 1 :]:
                assert outcome is OpOutcome.SKIPPED
        else:
            assert result.winner is None


def test_failure_cost_refuses_a_negative_failing_bid():
    with pytest.raises(ValueError, match="^failing_bid must be non-negative$"):
        failure_cost(Fraction(-1), None, 100_000, 1_000_000)


def test_failure_cost_refuses_a_negative_successful_bid():
    # it returned 2, above the no-success worst case of 1
    with pytest.raises(ValueError, match="^successful_bid must be non-negative$"):
        failure_cost(Fraction(1), Fraction(-1), 1, 1)


def test_solver_payoff_refuses_a_negative_private_value():
    # the transaction itself refuses one
    result = settle(tx_of(op("a", 100, behavior=Behavior.SUCCEED)))
    with pytest.raises(ValueError, match="^private_value must be non-negative$"):
        solver_payoff(result, "a", Fraction(-1))
