"""Tests for auction domain types and bid admission."""

from __future__ import annotations

import dataclasses
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
    _order_keys,
    admit_operations,
)
from ofasim.settlement import guaranteed_minimum

from _scenarios import random_transaction


def op(sid, bid, gas=100_000, used=None, behavior=Behavior.REVERT):
    return SolverOperation(
        solver_id=sid,
        bid=Fraction(bid),
        gas_reserved=gas,
        gas_used=gas if used is None else used,
        behavior=behavior,
    )


BUDGET_MESSAGE = "solver gas budget tx_gas_limit - user_gas_consumed must be positive"


class TestGasSchedule:
    def test_gamma_is_the_limit_less_the_user_gas(self):
        for limit, user in [(11_000_000, 1_000_000), (1, 0), (101, 100), (2**70, 2**69)]:
            schedule = GasSchedule(tx_gas_limit=limit, user_gas_consumed=user)
            assert schedule.gamma == limit - user
        # a property, not a field: the fields and repr are unchanged
        names = [f.name for f in dataclasses.fields(GasSchedule)]
        assert names == ["tx_gas_limit", "user_gas_consumed", "gas_price"]
        assert "gamma" not in repr(schedule)

    def test_zero_budget_raises_at_construction(self):
        for limit in (5, 100, 1):
            with pytest.raises(ValueError, match=f"^{BUDGET_MESSAGE}$"):
                GasSchedule(tx_gas_limit=limit, user_gas_consumed=limit)

    def test_limit_must_be_positive(self):
        with pytest.raises(ValueError, match="tx_gas_limit"):
            GasSchedule(tx_gas_limit=0, user_gas_consumed=0)

    def test_user_gas_cannot_exceed_limit(self):
        for user in (101, 10**6):
            with pytest.raises(ValueError, match=f"^{BUDGET_MESSAGE}$"):
                GasSchedule(tx_gas_limit=100, user_gas_consumed=user)

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


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: GasSchedule(True, 0), "tx_gas_limit"),
        (lambda: GasSchedule(10, False), "user_gas_consumed"),
        (lambda: GasSchedule(10, np.int64(0)), "user_gas_consumed"),
        (lambda: SolverOperation("s", Fraction(5), True), "gas_reserved"),
        (lambda: SolverOperation("s", Fraction(5), 5.0), "gas_reserved"),
        (lambda: SolverOperation("s", Fraction(5), 5, False), "gas_used"),
        (lambda: SolverOperation("s", Fraction(5), 5, True), "gas_used"),
    ],
    ids=["limit_true", "user_gas_false", "user_gas_numpy", "reserved_true", "reserved_float",
         "used_false", "used_true"],
)
def test_gas_must_be_an_int_and_not_a_bool(build, field):
    # the messages are the existing ones for a non-integer or out-of-range gas
    with pytest.raises(ValueError, match=f"^{field} must "):
        build()


@pytest.mark.parametrize("solver_id", [5, b"s1"], ids=repr)
def test_solver_id_must_be_a_str(solver_id):
    # 5 used to pass here and fail later, in admission's sort, with a TypeError
    with pytest.raises(ValueError, match="^solver_id must be a non-empty str, got "):
        SolverOperation(solver_id, Fraction(5), 5)


INEXACT = pytest.mark.parametrize("value", [1.5, "1.5", True], ids=["float", "str", "bool"])


class TestExactAmounts:
    """Currency enters as int or Fraction only; the integer kernel relies on it."""

    @INEXACT
    def test_bid_must_be_exact(self, value):
        with pytest.raises(ValueError, match="bid must be an int or a Fraction"):
            SolverOperation("a", value, 10)

    @INEXACT
    def test_gas_price_must_be_exact(self, value):
        with pytest.raises(ValueError, match="gas_price must be an int or a Fraction"):
            GasSchedule(tx_gas_limit=100, user_gas_consumed=0, gas_price=value)

    @INEXACT
    def test_private_values_must_be_exact(self, value):
        schedule = GasSchedule(tx_gas_limit=1_000_000, user_gas_consumed=0)
        with pytest.raises(ValueError, match="private value must be an int or a Fraction"):
            AuctionTransaction(
                schedule=schedule, solver_ops=(op("a", 1),), private_values={"a": value}
            )

    def test_ints_are_exact(self):
        schedule = GasSchedule(tx_gas_limit=100, user_gas_consumed=0, gas_price=2)
        tx = AuctionTransaction(
            schedule=schedule,
            solver_ops=(SolverOperation("a", 3, 10),),
            private_values={"a": 4},
        )
        assert (tx.bid_scale, tx.scaled_bids) == (1, (3,))


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
        with pytest.raises(ValueError, match="^private value must be non-negative$"):
            AuctionTransaction(
                schedule=schedule,
                solver_ops=(op("a", 1),),
                private_values={"a": Fraction(-1)},
            )

    def test_gamma_property(self):
        schedule = GasSchedule(tx_gas_limit=1_100_000, user_gas_consumed=100_000)
        tx = AuctionTransaction(schedule=schedule, solver_ops=(op("a", 1),))
        # the schedule is the one home of the budget; a transaction keeps no copy
        assert tx.schedule.gamma == 1_000_000
        assert not hasattr(tx, "gamma")


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
    assert sum(o.gas_reserved for o in tx.solver_ops) <= tx.schedule.gamma


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


def _tied_candidates(rng: np.random.Generator, count: int) -> list[SolverOperation]:
    """Ops whose bids mix denominators and ints and often tie (as 1/2 and 2/4
    do), whose gas often ties, and whose solver ids repeat."""
    candidates = []
    for _ in range(count):
        if rng.random() < 0.3:
            bid = int(rng.integers(0, 4))
        else:
            denominator = int(rng.choice([1, 2, 3, 4, 6, 7, 10, 12, 100, 1009]))
            bid = Fraction(int(rng.integers(0, 4 * denominator + 1)), denominator)
        candidates.append(
            SolverOperation(
                solver_id=f"s{int(rng.integers(0, max(2, count // 2)))}",
                bid=bid,
                gas_reserved=int(rng.choice([1, 2, 5, 100_000])),
            )
        )
    return candidates


def _reference_admission(candidates, schedule):
    """Admission spelled out on ``SolverOperation.sort_key`` (Fraction keys)."""
    best = {}
    for candidate in candidates:
        cur = best.get(candidate.solver_id)
        if cur is None or candidate.sort_key() < cur.sort_key():
            best[candidate.solver_id] = candidate
    admitted, remaining = [], schedule.gamma
    for candidate in sorted(best.values(), key=SolverOperation.sort_key):
        if candidate.gas_reserved > remaining:
            break
        admitted.append(candidate)
        remaining -= candidate.gas_reserved
    return admitted


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_integer_order_matches_the_fraction_order(seed):
    rng = np.random.default_rng(seed)
    candidates = _tied_candidates(rng, int(rng.integers(0, 25)))
    scale, keys, dens = _order_keys(candidates)
    assert all(Fraction(-key[0], scale) == c.bid for key, c in zip(keys, candidates))
    assert dens == [c.bid.denominator for c in candidates]
    by_integer = [c for _, c in sorted(zip(keys, candidates), key=lambda pair: pair[0])]
    by_fraction = sorted(candidates, key=SolverOperation.sort_key)
    assert [id(c) for c in by_integer] == [id(c) for c in by_fraction]

    schedule = GasSchedule(
        tx_gas_limit=int(rng.integers(1, 300_001)) + 50, user_gas_consumed=50
    )
    tx = admit_operations(candidates, schedule)
    reference = _reference_admission(candidates, schedule)
    assert [id(c) for c in tx.solver_ops] == [id(c) for c in reference]
    assert guaranteed_minimum(tx) == sum(
        (c.bid * Fraction(c.gas_reserved, tx.schedule.gamma) for c in reference), Fraction(0)
    )
    assert type(guaranteed_minimum(tx)) is Fraction


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_admission_builds_what_the_constructor_builds(seed):
    # admission skips the constructor's re-checks; its transaction must not differ
    rng = np.random.default_rng(seed)
    candidates = _tied_candidates(rng, int(rng.integers(0, 25)))
    ids = sorted({c.solver_id for c in candidates} | {"outsider"})
    rng.shuffle(ids)
    values = {
        sid: Fraction(int(rng.integers(0, 500)), int(rng.choice([1, 3, 10, 1009])))
        for sid in ids
        if rng.random() < 0.7
    }
    schedule = GasSchedule(
        tx_gas_limit=int(rng.integers(1, 300_001)) + 50, user_gas_consumed=50
    )
    tx = admit_operations(candidates, schedule, values)
    admitted = {o.solver_id for o in tx.solver_ops}
    kept = {sid: value for sid, value in values.items() if sid in admitted}
    built = AuctionTransaction(schedule, tx.solver_ops, kept)
    for f in dataclasses.fields(AuctionTransaction):  # the compare=False ones too
        assert getattr(tx, f.name) == getattr(built, f.name), f.name
    assert type(tx.private_values) is type(built.private_values)
    assert list(tx.private_values) == list(built.private_values) == list(kept)

    if tx.solver_ops:
        sid = tx.solver_ops[int(rng.integers(0, len(tx.solver_ops)))].solver_id
        for bad in (Fraction(-1, 3), -1, 1.5, True, "2"):
            with pytest.raises(ValueError, match="^private value"):
                admit_operations(candidates, schedule, {**values, sid: bad})
