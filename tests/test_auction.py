"""Tests for auction domain types and bid admission."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofasim.auction import (
    AuctionTransaction,
    Behavior,
    GasSchedule,
    SolverOperation,
    admit_operations,
    solver_gas_budget,
)

from _scenarios import random_transaction


def op(sid, bid, gas=100_000, used=None, behavior=Behavior.REVERT):
    return SolverOperation(
        solver_id=sid,
        bid=Fraction(bid),
        gas_reserved=gas,
        gas_used=gas if used is None else used,
        behavior=behavior,
    )


class TestGasSchedule:
    def test_solver_gas_budget(self):
        schedule = GasSchedule(tx_gas_limit=11_000_000, user_gas_consumed=1_000_000)
        assert solver_gas_budget(schedule) == 10_000_000
        assert schedule.solver_gas_budget() == 10_000_000

    def test_zero_budget_raises_on_use(self):
        schedule = GasSchedule(tx_gas_limit=100, user_gas_consumed=100)
        with pytest.raises(ValueError, match="budget must be positive"):
            schedule.solver_gas_budget()

    def test_limit_must_be_positive(self):
        with pytest.raises(ValueError, match="tx_gas_limit"):
            GasSchedule(tx_gas_limit=0, user_gas_consumed=0)

    def test_user_gas_cannot_exceed_limit(self):
        with pytest.raises(ValueError, match="exceeds tx_gas_limit"):
            GasSchedule(tx_gas_limit=100, user_gas_consumed=101)

    def test_negative_gas_price_rejected(self):
        with pytest.raises(ValueError, match="gas_price"):
            GasSchedule(
                tx_gas_limit=100, user_gas_consumed=0, gas_price=Fraction(-1)
            )


class TestSolverOperation:
    def test_negative_bid_rejected(self):
        with pytest.raises(ValueError, match="bid"):
            op("a", -1)

    def test_gas_reserved_must_be_positive(self):
        with pytest.raises(ValueError, match="gas_reserved"):
            op("a", 1, gas=0)

    def test_gas_used_within_reservation(self):
        with pytest.raises(ValueError, match="gas_used"):
            SolverOperation("a", Fraction(1), gas_reserved=10, gas_used=11)

    def test_gas_used_defaults_to_gas_reserved(self):
        assert SolverOperation("a", Fraction(1), gas_reserved=10).gas_used == 10
        assert SolverOperation("a", Fraction(1), 10, 0).gas_used == 0

    def test_empty_solver_id_rejected(self):
        with pytest.raises(ValueError, match="solver_id"):
            op("", 1)

    def test_sort_key_orders_by_bid_desc_gas_asc_id_asc(self):
        ops = [
            op("d", 50, gas=100),
            op("a", 100, gas=200),
            op("b", 100, gas=100),
            op("c", 100, gas=100),
        ]
        ordered = sorted(ops, key=SolverOperation.sort_key)
        assert [o.solver_id for o in ordered] == ["b", "c", "a", "d"]


class TestAuctionTransaction:
    def test_rejects_gas_over_budget(self):
        schedule = GasSchedule(tx_gas_limit=150_000, user_gas_consumed=0)
        with pytest.raises(ValueError, match="exceeds the solver gas budget"):
            AuctionTransaction(schedule=schedule, solver_ops=(op("a", 2), op("b", 1)))

    def test_rejects_duplicate_solver(self):
        schedule = GasSchedule(tx_gas_limit=1_000_000, user_gas_consumed=0)
        with pytest.raises(ValueError, match="duplicate solver_id"):
            AuctionTransaction(
                schedule=schedule, solver_ops=(op("a", 2), op("a", 1))
            )

    def test_rejects_non_canonical_order(self):
        schedule = GasSchedule(tx_gas_limit=1_000_000, user_gas_consumed=0)
        with pytest.raises(ValueError, match="canonical"):
            AuctionTransaction(
                schedule=schedule, solver_ops=(op("a", 1), op("b", 2))
            )

    def test_rejects_negative_private_value(self):
        schedule = GasSchedule(tx_gas_limit=1_000_000, user_gas_consumed=0)
        with pytest.raises(ValueError, match="private values"):
            AuctionTransaction(
                schedule=schedule,
                solver_ops=(op("a", 1),),
                private_values={"a": Fraction(-1)},
            )

    def test_gamma_property(self):
        schedule = GasSchedule(tx_gas_limit=1_100_000, user_gas_consumed=100_000)
        tx = AuctionTransaction(schedule=schedule, solver_ops=(op("a", 1),))
        assert tx.gamma == 1_000_000


class TestAdmitOperations:
    def setup_method(self):
        self.schedule = GasSchedule(tx_gas_limit=1_000_000, user_gas_consumed=0)

    def test_top_two_of_three_when_capacity_is_two(self):
        candidates = [
            op("a", 100, gas=400_000),
            op("b", 90, gas=400_000),
            op("c", 80, gas=400_000),
        ]
        tx = admit_operations(candidates, self.schedule)
        assert [o.solver_id for o in tx.solver_ops] == ["a", "b"]

    def test_duplicate_solver_keeps_higher_bid(self):
        tx = admit_operations([op("a", 50), op("a", 70)], self.schedule)
        assert len(tx.solver_ops) == 1
        assert tx.solver_ops[0].bid == 70

    def test_ten_ops_saturate_budget(self):
        candidates = [op(f"s{i}", 100 - i, gas=100_000) for i in range(10)]
        tx = admit_operations(candidates, self.schedule)
        assert len(tx.solver_ops) == 10
        assert sum(o.gas_reserved for o in tx.solver_ops) == 1_000_000

    def test_admission_stops_at_first_op_that_does_not_fit(self):
        # c would fit in the leftover gas, but admission is a prefix of the
        # bid-ordered ranking: the oversized b ends it.
        candidates = [
            op("a", 100, gas=600_000),
            op("b", 90, gas=600_000),
            op("c", 80, gas=300_000),
        ]
        tx = admit_operations(candidates, self.schedule)
        assert [o.solver_id for o in tx.solver_ops] == ["a"]

    def test_empty_candidates_yield_empty_transaction(self):
        tx = admit_operations([], self.schedule)
        assert tx.solver_ops == ()

    def test_private_values_filtered_to_admitted(self):
        candidates = [op("a", 100, gas=600_000), op("b", 90, gas=600_000)]
        values = {"a": Fraction(120), "b": Fraction(95), "zz": Fraction(1)}
        tx = admit_operations(candidates, self.schedule, values)
        assert dict(tx.private_values) == {"a": Fraction(120)}

    def test_equal_bids_rank_smaller_gas_first(self):
        candidates = [op("a", 100, gas=300_000), op("b", 100, gas=200_000)]
        tx = admit_operations(candidates, self.schedule)
        assert [o.solver_id for o in tx.solver_ops] == ["b", "a"]

    def test_full_tie_breaks_on_solver_id(self):
        candidates = [op("b", 100), op("a", 100)]
        tx = admit_operations(candidates, self.schedule)
        assert [o.solver_id for o in tx.solver_ops] == ["a", "b"]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_admitted_gas_never_exceeds_budget(seed):
    tx = random_transaction(np.random.default_rng(seed))
    assert sum(o.gas_reserved for o in tx.solver_ops) <= tx.gamma


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shuffle_seed=st.integers(0, 2**32 - 1))
def test_admission_is_permutation_invariant(seed, shuffle_seed):
    rng = np.random.default_rng(seed)
    count = int(rng.integers(1, 9))
    schedule = GasSchedule(tx_gas_limit=1_000_000, user_gas_consumed=0)
    candidates = [
        op(
            f"s{i}",
            Fraction(int(rng.integers(0, 6)), int(rng.choice([1, 2]))),
            gas=int(rng.integers(1, 400_001)),
        )
        for i in range(count)
    ]
    shuffled = list(candidates)
    np.random.default_rng(shuffle_seed).shuffle(shuffled)
    assert admit_operations(shuffled, schedule) == admit_operations(
        candidates, schedule
    )
