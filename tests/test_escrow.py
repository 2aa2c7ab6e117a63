"""Tests for the escrow ledger and reservation accounting."""

from __future__ import annotations

import math
import random
import sys
import threading
from decimal import Decimal
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from ofasim.auction import Behavior, GasSchedule, SolverOperation, admit_operations
from ofasim.escrow import (
    EscrowLedger,
    InsufficientEscrow,
    PendingReservation,
    required_escrow,
)
from ofasim.money import parse_amount
from ofasim.settlement import guaranteed_minimum, settle
from ofasim.simulation import SimConfig, Timeline, TimelineConfig, run_timeline

PHI = Fraction(3, 4_000_000)  # 7.5e-7
GAMMA = 1_000_000


def op(sid="s1", bid=100, gas=100_000):
    return SolverOperation(
        solver_id=sid, bid=Fraction(bid), gas_reserved=gas, gas_used=gas
    )


class TestRequiredEscrow:
    def test_penalty_plus_gas_prepayment(self):
        assert required_escrow(Fraction(100), 100_000, GAMMA, PHI) == parse_amount(
            "10.075"
        )

    def test_zero_bid_zero_price(self):
        assert required_escrow(Fraction(0), 100_000, GAMMA, Fraction(0)) == 0

    def test_larger_budget_shrinks_penalty_not_gas(self):
        assert required_escrow(Fraction(100), 100_000, 10_000_000, PHI) == parse_amount(
            "1.075"
        )

    def test_rejects_gas_above_gamma(self):
        with pytest.raises(ValueError, match="gas_reserved"):
            required_escrow(Fraction(1), GAMMA + 1, GAMMA, PHI)

    def test_rejects_non_positive_gamma(self):
        with pytest.raises(ValueError, match="gamma"):
            required_escrow(Fraction(1), 1, 0, PHI)

    @pytest.mark.parametrize("bid, price", [(Fraction(-1), PHI), (Fraction(1), -PHI)])
    def test_rejects_negative_bid_or_gas_price(self, bid, price):
        with pytest.raises(ValueError, match="non-negative"):
            required_escrow(bid, 100_000, GAMMA, price)


class TestReserve:
    def setup_method(self):
        self.ledger = EscrowLedger()

    def test_rejects_when_pending_exhausts_balance(self):
        self.ledger.deposit("s1", "a", Fraction(20))
        self.ledger.reserve("s1", "a", op(), GAMMA, PHI)
        with pytest.raises(InsufficientEscrow):
            self.ledger.reserve("s1", "a", op(), GAMMA, PHI)

    def test_accepts_with_headroom(self):
        self.ledger.deposit("s1", "a", Fraction(25))
        self.ledger.reserve("s1", "a", op(), GAMMA, PHI)
        self.ledger.reserve("s1", "a", op(), GAMMA, PHI)
        assert self.ledger.available("s1", "a") == parse_amount("4.85")

    def test_boundary_equality_accepts(self):
        self.ledger.deposit("s1", "a", parse_amount("10.075"))
        self.ledger.reserve("s1", "a", op(), GAMMA, PHI)
        assert self.ledger.available("s1", "a") == 0

    def test_rejection_leaves_ledger_unchanged(self):
        self.ledger.deposit("s1", "a", Fraction(5))
        before = (
            self.ledger.to_json(),
            self.ledger.available("s1", "a"),
            self.ledger.pending("s1", "a"),
        )
        with pytest.raises(InsufficientEscrow, match="needs 10.075"):
            self.ledger.reserve("s1", "a", op(), GAMMA, PHI)
        after = (
            self.ledger.to_json(),
            self.ledger.available("s1", "a"),
            self.ledger.pending("s1", "a"),
        )
        assert after == before

    def test_rejection_carries_needed_and_available(self):
        self.ledger.deposit("s1", "a", Fraction(12))
        self.ledger.reserve("s1", "a", op(), GAMMA, PHI)
        with pytest.raises(InsufficientEscrow) as excinfo:
            self.ledger.reserve("s1", "a", op(), GAMMA, PHI)
        assert excinfo.value.needed == parse_amount("10.075")
        assert excinfo.value.available == parse_amount("1.925")

    def test_zero_reservation_by_unfunded_solver(self):
        # It succeeds without listing the solver; settling it records a zero
        # balance, so the solver then appears in snapshots.
        free = SolverOperation("ghost", Fraction(0), gas_reserved=1)
        reservation = self.ledger.reserve("ghost", "a", free, GAMMA, Fraction(0))
        assert self.ledger.available("ghost", "a") == 0
        assert dict(self.ledger.prefetch_snapshot("a")) == {}
        self.ledger.settle_reservation(reservation.handle, Fraction(0))
        assert dict(self.ledger.prefetch_snapshot("a")) == {"ghost": Fraction(0)}

    def test_balances_are_per_auctioneer(self):
        self.ledger.deposit("s1", "a", Fraction(100))
        self.ledger.deposit("s1", "b", Fraction(1))
        self.ledger.reserve("s1", "a", op(), GAMMA, PHI)
        assert self.ledger.available("s1", "b") == 1
        with pytest.raises(InsufficientEscrow):
            self.ledger.reserve("s1", "b", op(), GAMMA, PHI)


class TestSettleReservation:
    def setup_method(self):
        self.ledger = EscrowLedger()
        self.ledger.deposit("s1", "a", Fraction(50))
        self.reservation = self.ledger.reserve("s1", "a", op(), GAMMA, PHI)

    def test_deducts_actual_charge_and_frees_remainder(self):
        self.ledger.settle_reservation(self.reservation.handle, Fraction(2))
        assert self.ledger.balance("s1", "a") == 48
        assert self.ledger.available("s1", "a") == 48
        assert self.ledger.pending("s1", "a") == ()

    def test_full_charge_at_reserved_amount(self):
        self.ledger.settle_reservation(
            self.reservation.handle, self.reservation.amount
        )
        assert self.ledger.balance("s1", "a") == 50 - parse_amount("10.075")

    def test_overcharge_rejected(self):
        with pytest.raises(ValueError, match="exceeds reserved"):
            self.ledger.settle_reservation(
                self.reservation.handle, self.reservation.amount + 1
            )

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            self.ledger.settle_reservation(self.reservation.handle, Fraction(-1))

    def test_unknown_handle_raises(self):
        with pytest.raises(KeyError, match="no pending reservation"):
            self.ledger.settle_reservation(999, Fraction(0))

    def test_handle_cannot_settle_twice(self):
        self.ledger.settle_reservation(self.reservation.handle, Fraction(0))
        with pytest.raises(KeyError):
            self.ledger.settle_reservation(self.reservation.handle, Fraction(0))

    def test_cancel_restores_available(self):
        assert self.ledger.available("s1", "a") == 50 - parse_amount("10.075")
        self.ledger.cancel_reservation(self.reservation.handle)
        assert self.ledger.available("s1", "a") == 50
        assert self.ledger.balance("s1", "a") == 50

    def test_settling_one_reservation_leaves_others_pending(self):
        other = self.ledger.reserve("s1", "a", op(sid="s1"), GAMMA, PHI)
        self.ledger.settle_reservation(self.reservation.handle, Fraction(1))
        remaining = self.ledger.pending("s1", "a")
        assert [r.handle for r in remaining] == [other.handle]
        assert remaining[0].amount == other.amount


@pytest.mark.parametrize("value", [1.5, "1.5", True], ids=["float", "str", "bool"])
def test_deposit_and_charge_must_be_exact(value):
    ledger = EscrowLedger()
    with pytest.raises(ValueError, match="deposit amount must be an int or a Fraction"):
        ledger.deposit("s1", "a", value)
    ledger.deposit("s1", "a", 50)
    reservation = ledger.reserve("s1", "a", op(), GAMMA, PHI)
    with pytest.raises(ValueError, match="charge must be an int or a Fraction"):
        ledger.settle_reservation(reservation.handle, value)
    assert ledger.available("s1", "a") == 50 - parse_amount("10.075")
    assert [r.handle for r in ledger.pending("s1", "a")] == [reservation.handle]


@pytest.mark.parametrize(
    "gamma, price, message",
    [
        (GAMMA, 0.5, "gas_price must be an int or a Fraction, got float"),
        (GAMMA, "0.5", "gas_price must be an int or a Fraction, got str"),
        (GAMMA, Decimal("0.5"), "gas_price must be an int or a Fraction, got Decimal"),
        (GAMMA, True, "gas_price must be an int or a Fraction, got bool"),
        (GAMMA, -PHI, "gas_price must be non-negative"),
        (GAMMA, -1, "gas_price must be non-negative"),
        (1e6, PHI, "gamma must be an int, got float"),
        (True, PHI, "gamma must be an int, got bool"),
        (np.int64(GAMMA), PHI, "gamma must be an int, got int64"),
        (0, PHI, "gamma must lie in [1, inf]"),
        (-5, PHI, "gamma must lie in [1, inf]"),
        (99_999, PHI, "gas_reserved must lie in [1, 99999]"),  # the op reserves 100,000
        # precedence: gamma, then gas, then the price's type, then its sign
        (True, 0.5, "gamma must be an int, got bool"),
        (99_999, "x", "gas_reserved must lie in [1, 99999]"),
        (GAMMA, -0.5, "gas_price must be an int or a Fraction, got float"),
    ],
    ids=[
        "float_price", "str_price", "decimal_price", "bool_price", "negative_price",
        "negative_int_price", "float_gamma", "bool_gamma", "int64_gamma", "zero_gamma",
        "negative_gamma", "gas_above_gamma", "gamma_first", "gas_before_price",
        "type_before_sign",
    ],
)
def test_reserve_refuses_inexact_gamma_or_gas_price(gamma, price, message):
    ledger = EscrowLedger()
    ledger.deposit("s1", "a", 50)
    held = ledger.reserve("s1", "a", op(gas=1), GAMMA, PHI)
    before = ledger.to_json(), ledger.available("s1", "a"), ledger.pending("s1", "a")
    refused = op()
    for call in (
        lambda: required_escrow(refused.bid, refused.gas_reserved, gamma, price),
        lambda: ledger.reserve("s1", "a", refused, gamma, price),
    ):
        with pytest.raises(ValueError) as excinfo:
            call()
        assert excinfo.type is ValueError and str(excinfo.value) == message
    assert (ledger.to_json(), ledger.available("s1", "a"), ledger.pending("s1", "a")) == before
    assert before[2] == (held,)


def test_alternating_terms_reserve_as_fresh_ledgers_do():
    # the terms of two auctions, and equal but distinct objects of the first:
    # the ledger's check-once cache misses on each switch and on each copy
    big, price = 3 * GAMMA, Fraction(1, 100_000)
    first, second = (GAMMA, PHI), (big, price)
    copy = (int(str(GAMMA)), Fraction(3, 4_000_000))
    assert copy == first and copy[0] is not GAMMA and copy[1] is not PHI
    terms = (first, second, (GAMMA, price), (big, PHI), first, copy, second, copy, first)
    ops = [op("s1", Fraction(7, 3)), op("s2", 50, 300_000), op("s3", 90, 900_000)]
    funds = {"s1": Fraction(2), "s2": Fraction(60), "s3": Fraction(90)}
    ledger = EscrowLedger()
    for solver, amount in funds.items():
        ledger.deposit(solver, "a", amount)
    refused = set()
    for gamma, gas_price in terms:
        for operation in ops:
            solver = operation.solver_id
            fresh = EscrowLedger()
            fresh.deposit(solver, "a", ledger.available(solver, "a"))
            outcomes = []
            for book in (ledger, fresh):
                try:
                    outcomes.append(book.reserve(solver, "a", operation, gamma, gas_price)[2:])
                except InsufficientEscrow as exc:
                    outcomes.append(exc.args[1:])
                    refused.add(solver)
            needed = required_escrow(operation.bid, operation.gas_reserved, gamma, gas_price)
            assert outcomes[0] == outcomes[1]
            assert needed.as_integer_ratio() in outcomes[0]
            assert ledger.available(solver, "a") == fresh.available(solver, "a")
    assert refused == set(funds)
    for solver, amount in funds.items():
        held = ledger.pending(solver, "a")
        assert held and sum(r.amount for r in held) == amount - ledger.available(solver, "a")


def test_cached_terms_still_refuse_bad_gas_and_bad_terms():
    ledger = EscrowLedger()
    ledger.deposit("s1", "a", 50)
    ledger.reserve("s1", "a", op(gas=1), GAMMA, PHI)  # (GAMMA, PHI) are now cached
    before = ledger.to_json(), ledger.available("s1", "a"), ledger.pending("s1", "a")
    too_much_gas = SolverOperation("s1", Fraction(1), gas_reserved=GAMMA + 1)
    # op-like records that skipped SolverOperation's own checks
    no_gas = SimpleNamespace(solver_id="s1", bid=Fraction(1), gas_reserved=0)
    bool_gas = SimpleNamespace(solver_id="s1", bid=Fraction(1), gas_reserved=True)
    refusals = [
        (too_much_gas, GAMMA, PHI, "gas_reserved must lie in [1, 1000000]"),
        (no_gas, GAMMA, PHI, "gas_reserved must lie in [1, 1000000]"),
        (bool_gas, GAMMA, PHI, "gas_reserved must be an int, got bool"),
        (too_much_gas, GAMMA, 0.5, "gas_reserved must lie in [1, 1000000]"),
        (op(), True, PHI, "gamma must be an int, got bool"),
        (op(), 0, PHI, "gamma must lie in [1, inf]"),
        (op(), GAMMA, -PHI, "gas_price must be non-negative"),
        (op(), GAMMA, 0.5, "gas_price must be an int or a Fraction, got float"),
    ]
    for operation, gamma, price, message in refusals:
        with pytest.raises(ValueError) as excinfo:
            ledger.reserve("s1", "a", operation, gamma, price)
        assert excinfo.type is ValueError and str(excinfo.value) == message
        assert (ledger.to_json(), ledger.available("s1", "a"), ledger.pending("s1", "a")) == before
    held = ledger.reserve("s1", "a", op(), GAMMA, PHI)
    assert held.amount == required_escrow(Fraction(100), 100_000, GAMMA, PHI)


def test_required_escrow_refuses_inexact_bid():
    with pytest.raises(ValueError, match="^bid must be an int or a Fraction, got float$"):
        required_escrow(1.5, 1, GAMMA, PHI)


@pytest.mark.parametrize(
    "bid, gas, price, message",
    [
        (True, 1, PHI, "bid must be an int or a Fraction, got bool"),
        (Fraction(1), True, PHI, "gas_reserved must be an int, got bool"),
        # used to end in a TypeError traceback
        (Fraction(1), 1.5, PHI, "gas_reserved must be an int, got float"),
    ],
    ids=["bool_bid", "bool_gas", "float_gas"],
)
def test_required_escrow_refuses_bool_and_float_inputs(bid, gas, price, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        required_escrow(bid, gas, GAMMA, price)


def test_rejection_message_is_formatted_on_demand():
    ledger = EscrowLedger()
    ledger.deposit("s1", "a", Fraction(12))
    ledger.reserve("s1", "a", op(), GAMMA, PHI)
    with pytest.raises(InsufficientEscrow) as excinfo:
        ledger.reserve("s1", "a", op(), GAMMA, PHI)
    exc = excinfo.value
    assert str(exc) == "solver 's1' needs 10.075 escrow with 'a' but has 1.925 available"
    assert (exc.needed, exc.available) == (parse_amount("10.075"), parse_amount("1.925"))
    assert type(exc.needed) is Fraction and type(exc.available) is Fraction
    assert repr(exc) == "InsufficientEscrow('s1', 'a', Fraction(403, 40), Fraction(77, 40))"


def test_rejection_built_from_fractions_reads_as_the_ledger_raises_it():
    exc = InsufficientEscrow("s1", "a", parse_amount("10.075"), parse_amount("1.925"))
    assert str(exc) == "solver 's1' needs 10.075 escrow with 'a' but has 1.925 available"
    assert (exc.needed, exc.available) == (parse_amount("10.075"), parse_amount("1.925"))
    assert type(exc.needed) is Fraction and type(exc.available) is Fraction
    assert repr(exc) == "InsufficientEscrow('s1', 'a', Fraction(403, 40), Fraction(77, 40))"


def test_pending_reservation_is_an_immutable_hashable_record():
    ledger = EscrowLedger()
    ledger.deposit("s1", "a", 50)
    reservation = ledger.reserve("s1", "a", op(bid=Fraction(7, 3)), GAMMA, PHI)
    needed = required_escrow(Fraction(7, 3), 100_000, GAMMA, PHI)
    assert reservation.amount == needed and type(reservation.amount) is Fraction
    assert reservation.amount_pair == (needed.numerator, needed.denominator)
    assert tuple(reservation) == (reservation.handle, "s1", "a", "s1", reservation.amount_pair)
    assert reservation == PendingReservation(*reservation)
    assert hash(reservation) == hash(PendingReservation(*reservation))
    assert {reservation: 1}[PendingReservation(*reservation)] == 1
    with pytest.raises(AttributeError):
        reservation.amount_pair = (0, 1)  # type: ignore[misc]
    with pytest.raises(TypeError):
        reservation[4] = (0, 1)  # type: ignore[index]


class TestSnapshot:
    def test_reports_available_per_solver(self):
        ledger = EscrowLedger()
        ledger.deposit("s1", "a", Fraction(30))
        ledger.deposit("s2", "a", Fraction(5))
        ledger.deposit("s3", "other", Fraction(7))
        ledger.reserve("s1", "a", op(), GAMMA, PHI)
        snapshot = ledger.prefetch_snapshot("a")
        assert snapshot == {
            "s1": 30 - parse_amount("10.075"),
            "s2": Fraction(5),
        }

    def test_snapshot_is_immutable_and_detached(self):
        ledger = EscrowLedger()
        ledger.deposit("s1", "a", Fraction(30))
        snapshot = ledger.prefetch_snapshot("a")
        with pytest.raises(TypeError):
            snapshot["s1"] = Fraction(0)  # type: ignore[index]
        ledger.deposit("s1", "a", Fraction(100))
        assert snapshot["s1"] == 30

    def test_snapshot_is_a_read_only_mapping(self):
        ledger = EscrowLedger()
        for solver, amount in (("s2", 30), ("s1", Fraction(7, 3)), ("s3", 0)):
            ledger.deposit(solver, "a", amount)
        ledger.deposit("s1", "other", Fraction(9))
        ledger.reserve("s2", "a", op(sid="s2"), GAMMA, PHI)
        snapshot = ledger.prefetch_snapshot("a")
        expected = {"s2": 30 - parse_amount("10.075"), "s1": Fraction(7, 3), "s3": Fraction(0)}
        assert snapshot == expected and expected == snapshot
        assert not snapshot != expected and not expected != snapshot
        assert snapshot != {**expected, "s3": Fraction(1)}
        assert snapshot.get("s1") == Fraction(7, 3)
        assert snapshot.get("missing") is None and snapshot.get("missing", 5) == 5
        assert "s3" in snapshot and "missing" not in snapshot and 1 not in snapshot
        assert len(snapshot) == 3
        assert list(snapshot) == ["s2", "s1", "s3"]  # the ledger's insertion order
        assert list(snapshot.items()) == list(expected.items())
        assert all(type(value) is Fraction for value in snapshot.values())
        assert type(snapshot["s3"]) is Fraction
        with pytest.raises(KeyError):
            snapshot["missing"]
        with pytest.raises(TypeError):
            snapshot["s1"] = Fraction(0)  # type: ignore[index]
        with pytest.raises(TypeError):
            del snapshot["s1"]  # type: ignore[attr-defined]
        ledger.deposit("s1", "a", Fraction(100))
        ledger.deposit("s4", "a", Fraction(1))
        ledger.cancel_reservation(ledger.pending("s2", "a")[0].handle)
        assert snapshot == expected
        assert dict(snapshot) == expected

    def test_repr_shows_the_amounts(self):
        ledger = EscrowLedger()
        ledger.deposit("s1", "a", Fraction(7, 3))
        assert repr(ledger.prefetch_snapshot("a")) == "_Snapshot({'s1': Fraction(7, 3)})"

    def test_snapshot_backs_a_timeline_like_a_dict(self):
        schedule = GasSchedule(tx_gas_limit=1_100_000, user_gas_consumed=100_000, gas_price=PHI)
        candidates = (
            SolverOperation("a", Fraction(100), 500_000, 400_000),
            SolverOperation("b", Fraction(80), 500_000, 500_000),
            SolverOperation("c", Fraction(60), 500_000, 500_000),
            SolverOperation("d", Fraction(70), 500_000, 500_000),  # never deposited
        )
        ledger = EscrowLedger()
        for solver, amount in (("a", 10_000), ("b", 0), ("c", 10_000)):
            ledger.deposit(solver, "auctioneer", amount)
        snapshot = ledger.prefetch_snapshot("auctioneer")

        def report(escrow):
            timeline = Timeline(TimelineConfig(), schedule, candidates, escrow)
            return run_timeline(SimConfig(trials=1, seed=1, model=timeline))

        assert report(snapshot) == report(dict(snapshot))
        notes = [event["note"] for event in report(snapshot)["events"]]
        assert "b insufficient escrow (cached)" in notes
        assert "d insufficient escrow (cached)" in notes


class TestLedgerIds:
    BAD_IDS = pytest.mark.parametrize("bad", [1, None, "", b"s1", True], ids=repr)

    def funded(self):
        ledger = EscrowLedger()
        ledger.deposit("s", "a", Fraction(50))
        return ledger, self.state(ledger)

    @staticmethod
    def state(ledger):
        return ledger.to_json(), list(ledger), dict(ledger.prefetch_snapshot("a"))

    @BAD_IDS
    def test_deposit_refuses_a_bad_id(self, bad):
        ledger, before = self.funded()
        with pytest.raises(ValueError, match="^solver_id must be a non-empty str, got "):
            ledger.deposit(bad, "a", 5)
        with pytest.raises(ValueError, match="^auctioneer_id must be a non-empty str, got "):
            ledger.deposit("s", bad, 5)
        assert self.state(ledger) == before

    @BAD_IDS
    def test_reserve_refuses_a_bad_id(self, bad):
        ledger, before = self.funded()
        for solver, auctioneer, gamma, price, which in [
            (bad, "a", GAMMA, PHI, "solver_id"),
            ("s", bad, GAMMA, PHI, "auctioneer_id"),
            (bad, bad, True, 0.5, "solver_id"),  # ids are checked first
        ]:
            with pytest.raises(ValueError) as excinfo:
                ledger.reserve(solver, auctioneer, op(), gamma, price)
            assert excinfo.type is ValueError
            assert str(excinfo.value) == f"{which} must be a non-empty str, got {bad!r}"
        assert self.state(ledger) == before
        assert ledger.pending("s", "a") == ()

    def test_document_with_an_empty_id_is_refused(self):
        with pytest.raises(ValueError, match="^solver_id must be a non-empty str"):
            EscrowLedger.from_json('{"": {"a": "1"}}')
        with pytest.raises(ValueError, match="^auctioneer_id must be a non-empty str"):
            EscrowLedger.from_json('{"s": {"": "1"}}')


class TestJsonRoundTrip:
    def test_export_import(self):
        ledger = EscrowLedger()
        ledger.deposit("s1", "a", parse_amount("10.075"))
        ledger.deposit("s1", "b", Fraction(3))
        ledger.deposit("s2", "a", Fraction(0))
        restored = EscrowLedger.from_json(ledger.to_json())
        assert list(restored) == list(ledger)

    def test_rejects_non_object_document(self):
        with pytest.raises(ValueError, match="must be an object"):
            EscrowLedger.from_json("[]")

    def test_rejects_non_object_solver_entry(self):
        with pytest.raises(ValueError, match="must be an object"):
            EscrowLedger.from_json('{"s1": 5}')


def test_random_interleaving_never_overdraws():
    # Concurrent reserve/settle/cancel traffic from several threads: charges
    # against a solver must never exceed its deposit, and available() must
    # stay non-negative throughout.
    ledger = EscrowLedger()
    deposit = Fraction(200)
    ledger.deposit("s1", "a", deposit)
    charged_total = []
    errors = []
    lock = threading.Lock()

    def worker(worker_seed: int) -> None:
        rng = np.random.default_rng(worker_seed)
        try:
            for _ in range(120):
                try:
                    reservation = ledger.reserve(
                        "s1", "a", op(gas=int(rng.integers(1, GAMMA + 1))), GAMMA, PHI
                    )
                except InsufficientEscrow:
                    continue
                assert ledger.available("s1", "a") >= 0
                if rng.random() < 0.3:
                    ledger.cancel_reservation(reservation.handle)
                    continue
                charge = reservation.amount * Fraction(int(rng.integers(0, 101)), 100)
                ledger.settle_reservation(reservation.handle, charge)
                with lock:
                    charged_total.append(charge)
        except BaseException as exc:  # propagated to the main thread below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert errors == []
    assert sum(charged_total, Fraction(0)) <= deposit
    assert ledger.balance("s1", "a") == deposit - sum(charged_total, Fraction(0))
    assert ledger.available("s1", "a") >= 0


def test_threads_under_their_own_terms_reserve_their_own_amounts():
    # each thread reserves under its own (gamma, gas_price); the ledger's cache
    # of checked terms is shared, so a torn or stale entry shows as a wrong amount
    ledger = EscrowLedger()
    ledger.deposit("s1", "a", Fraction(10**9))
    terms = [(GAMMA * k, Fraction(k, 100_000)) for k in range(1, 5)]
    wrong, errors = [], []

    def worker(gamma, price):
        try:
            for gas in range(1_000, 400_000, 1_000):
                held = ledger.reserve("s1", "a", op(bid=7, gas=gas), gamma, price)
                if held.amount != required_escrow(Fraction(7), gas, gamma, price):
                    wrong.append((gamma, price, gas))
        except BaseException as exc:  # propagated to the main thread below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=pair) for pair in terms]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == [] and wrong == []
    assert len(ledger.pending("s1", "a")) == 4 * 399


def test_random_sequence_matches_brute_force_oracle():
    # A seeded single-threaded sequence of deposits, reserves, settlements and
    # cancellations over two auctioneers. After every step, available(),
    # balance() and prefetch_snapshot() must equal a recomputation from the
    # deposits and charges seen so far and the pending() reservations, and
    # every reservation must hold exactly the documented required escrow.
    rng = random.Random(20_240_817)
    ledger = EscrowLedger()
    solvers, funded, auctioneers = ("s1", "s2", "s3", "ghost"), ("s1", "s2", "s3"), ("a", "b")
    balances: dict[tuple[str, str], Fraction] = {}  # keys exactly as deposited/settled
    live: dict[int, PendingReservation] = {}
    seen = {"zero": 0, "ghost": 0, "rejected": 0, "settled": 0, "cancelled": 0}

    def state():
        return (
            ledger.to_json(),
            [dict(ledger.prefetch_snapshot(a)) for a in auctioneers],
            [ledger.pending(s, a) for s in solvers for a in auctioneers],
        )

    def check():
        for a in auctioneers:
            expected = {}
            for s in solvers:
                held = sum((r.amount for r in ledger.pending(s, a)), Fraction(0))
                assert {r.handle for r in ledger.pending(s, a)} == {
                    h for h, r in live.items() if (r.solver_id, r.auctioneer_id) == (s, a)
                }
                available = balances.get((s, a), Fraction(0)) - held
                assert ledger.balance(s, a) == balances.get((s, a), Fraction(0))
                assert ledger.available(s, a) == available >= 0
                assert isinstance(ledger.available(s, a), Fraction)
                if (s, a) in balances:
                    expected[s] = available
            snapshot = ledger.prefetch_snapshot(a)
            assert dict(snapshot) == expected
            assert all(isinstance(value, Fraction) for value in snapshot.values())

    for _ in range(800):
        roll = rng.random()
        if roll < 0.15:
            key = (rng.choice(funded), rng.choice(auctioneers))
            amount = Fraction(rng.randint(0, 60), rng.randint(1, 7))
            ledger.deposit(*key, amount)
            balances[key] = balances.get(key, Fraction(0)) + amount
        elif roll < 0.6:
            solver, auctioneer = rng.choice(solvers), rng.choice(auctioneers)
            free = rng.random() < 0.2
            bid = Fraction(0) if free else Fraction(rng.randint(0, 300), rng.randint(1, 3))
            price = Fraction(0) if free else PHI
            operation = op(sid=solver, bid=bid, gas=rng.randint(1, GAMMA))
            gas = operation.gas_reserved
            needed = bid * Fraction(gas, GAMMA) + price * gas  # the documented formula
            before = state()
            try:
                reservation = ledger.reserve(solver, auctioneer, operation, GAMMA, price)
            except InsufficientEscrow as exc:
                assert exc.needed == needed > exc.available == ledger.available(solver, auctioneer)
                assert state() == before
                seen["rejected"] += 1
            else:
                assert reservation.amount == needed
                live[reservation.handle] = reservation
                seen["zero"] += needed == 0
                seen["ghost"] += solver == "ghost"
        elif live:
            handle = rng.choice(sorted(live))
            reservation = live.pop(handle)
            if roll < 0.85:
                charged = reservation.amount * Fraction(rng.randint(0, 100), 100)
                ledger.settle_reservation(handle, charged)
                key = (reservation.solver_id, reservation.auctioneer_id)
                balances[key] = balances.get(key, Fraction(0)) - charged
                seen["settled"] += 1
            else:
                ledger.cancel_reservation(handle)
                seen["cancelled"] += 1
        check()

    assert all(count > 0 for count in seen.values()), seen
    assert any(solver == "ghost" for solver, _ in balances)  # a settled zero hold


def test_online_stream_matches_a_fraction_dict_ledger():
    # A small seeded online stream, as an auctioneer runs it: per order, with
    # its own gamma, reserve every candidate, admit, cancel the candidates not
    # admitted, and settle `lag` orders later. A plain Fraction dict ledger
    # replays it and must agree on every rejection and its fields, on each
    # snapshot and on the final balances. Every stored pair must be the value's
    # reduced form, so no common denominator builds up across orders.
    rng = random.Random(20_261_019)
    lag, auctioneer = 8, "auctioneer"
    solvers = [f"s{i:02d}" for i in range(30)]
    balance = {}
    for i, sid in enumerate(solvers):
        low, high = (3, 12) if i % 5 == 0 else (60, 200)  # some solvers are thinly funded
        scale = rng.randint(1, 9)
        balance[sid] = Fraction(rng.randint(low * scale, high * scale), scale)
    held = dict.fromkeys(solvers, Fraction(0))
    ledger = EscrowLedger()
    for sid, amount in balance.items():
        ledger.deposit(sid, auctioneer, amount)
    gammas = rng.sample(range(1_000_000, 3_000_000), 200)
    in_flight = []  # (tx, {solver_id: (handle, needed)})
    counts = {"rejected": 0, "cancelled": 0, "charged": 0}

    def check_pairs():
        for (sid, _), pair in ledger._balances.items():
            assert pair == (balance[sid].numerator, balance[sid].denominator)
        for sid, pair in ledger._available[auctioneer].items():
            value = balance[sid] - held[sid]
            assert pair == (value.numerator, value.denominator)
        for reservation in ledger._pending.values():
            n, d = reservation.amount_pair
            assert d > 0 and math.gcd(n, d) == 1

    def settle_order(tx, kept):
        result = settle(tx)
        for sid, (handle, needed) in kept.items():
            charge = Fraction(0)
            if sid in result.failure_costs:
                charge = result.failure_costs[sid] + result.gas_charges[sid]
                counts["charged"] += 1
            assert charge <= needed
            ledger.settle_reservation(handle, charge)
            held[sid] -= needed
            balance[sid] -= charge

    for gamma in gammas:
        assert ledger.prefetch_snapshot(auctioneer) == {
            sid: balance[sid] - held[sid] for sid in solvers
        }
        check_pairs()
        price = Fraction(rng.choice((1, 2, 3)), 100_000)
        user_gas = rng.randint(50_000, 300_000)
        schedule = GasSchedule(gamma + user_gas, user_gas, price)
        chosen = rng.sample(solvers, rng.randint(3, 12))
        chosen += rng.sample(chosen, len(chosen) // 4)  # a few solvers send a second op
        reserved = []
        for sid in chosen:
            gas = int(gamma * rng.uniform(0.04, 0.3))
            ok = rng.random() < 0.5
            candidate = SolverOperation(
                sid,
                Fraction(rng.randint(50, 150) * 100 + rng.randint(0, 99), rng.choice((100, 400, 1000))),
                gas,
                int(gas * rng.uniform(0.2, 1.0)),
                Behavior.SUCCEED if ok else Behavior.REVERT,
            )
            needed = candidate.bid * gas / gamma + price * gas  # the documented formula
            try:
                reservation = ledger.reserve(sid, auctioneer, candidate, gamma, price)
            except InsufficientEscrow as exc:
                assert balance[sid] - held[sid] < needed
                assert (exc.needed, exc.available) == (needed, balance[sid] - held[sid])
                assert type(exc.needed) is Fraction and type(exc.available) is Fraction
                counts["rejected"] += 1
                continue
            assert balance[sid] - held[sid] >= needed
            assert reservation.amount == needed and type(reservation.amount) is Fraction
            held[sid] += needed
            reserved.append((candidate, reservation.handle, needed))
        tx = admit_operations([candidate for candidate, _, _ in reserved], schedule)
        admitted = {id(candidate) for candidate in tx.solver_ops}
        kept = {}
        for candidate, handle, needed in reserved:
            if id(candidate) in admitted:
                kept[candidate.solver_id] = (handle, needed)
            else:
                ledger.cancel_reservation(handle)
                held[candidate.solver_id] -= needed
                counts["cancelled"] += 1
        in_flight.append((tx, kept))
        if len(in_flight) > lag:
            settle_order(*in_flight.pop(0))
    while in_flight:
        settle_order(*in_flight.pop(0))

    check_pairs()
    assert all(amount == 0 for amount in held.values())
    assert dict(ledger.prefetch_snapshot(auctioneer)) == balance
    assert {sid: ledger.balance(sid, auctioneer) for sid in solvers} == balance
    assert list(ledger) == sorted(((sid, auctioneer), amount) for sid, amount in balance.items())
    assert all(count > 0 for count in counts.values()), counts


def test_admitted_holds_back_the_guaranteed_minimum():
    # The stream's call pattern: per seeded order, reserve every candidate on a
    # funded ledger (thinly funded solvers are refused), then admit the
    # reserved ops. Each hold is the op's required escrow, as a reduced pair,
    # and the admitted holds less their gas prepayment sum to exactly the floor.
    rng = random.Random(20_261_022)
    auctioneer, solvers = "auctioneer", [f"s{i:02d}" for i in range(30)]
    ledger = EscrowLedger()
    for i, sid in enumerate(solvers):
        low, high = (3, 12) if i % 5 == 0 else (60, 200)
        ledger.deposit(sid, auctioneer, Fraction(rng.randint(low * 100, high * 100), 100))
    refused = admitted = 0
    for _ in range(60):
        gamma = rng.randint(1_000_000, 3_000_000)
        price = Fraction(rng.choice((1, 2, 3)), 100_000)
        user_gas = rng.randint(50_000, 300_000)
        chosen = rng.sample(solvers, rng.randint(3, 12))
        chosen += rng.sample(chosen, len(chosen) // 4)  # a few solvers send a second op
        reserved, held = [], {}
        for sid in chosen:
            bid = Fraction(rng.randint(50 * 10_000, 150 * 10_000), 10_000)
            candidate = op(sid, bid, int(gamma * rng.uniform(0.04, 0.24)))
            try:
                reservation = ledger.reserve(sid, auctioneer, candidate, gamma, price)
            except InsufficientEscrow:
                refused += 1
                continue
            needed = required_escrow(bid, candidate.gas_reserved, gamma, price)
            assert reservation.amount_pair == needed.as_integer_ratio()
            reserved.append(candidate)
            held[id(candidate)] = reservation
        tx = admit_operations(reserved, GasSchedule(gamma + user_gas, user_gas, price))
        backing = sum(
            (held[id(o)].amount - price * o.gas_reserved for o in tx.solver_ops), Fraction(0)
        )
        assert backing == guaranteed_minimum(tx)
        admitted += len(tx.solver_ops)
        for reservation in held.values():
            ledger.cancel_reservation(reservation.handle)
    assert refused > 0 and admitted > 0


class LedgerMachine(RuleBasedStateMachine):
    """Deposits, reserves (funded, unfunded and rejected), settlements and
    cancellations over two auctioneers, checked after every step against a
    model of deposits, charges and live holds kept in Fractions."""

    SOLVERS, AUCTIONEERS = ("s1", "s2", "ghost"), ("a", "b")  # "ghost" never deposits

    def __init__(self):
        super().__init__()
        self.ledger = EscrowLedger()
        self.deposited: dict[tuple[str, str], Fraction] = {}
        self.charged: dict[tuple[str, str], Fraction] = {}
        self.live: dict[int, tuple[tuple[str, str], Fraction]] = {}  # handle → (pair, hold)
        self.settled: list[tuple[Fraction, Fraction]] = []  # (balance taken, its hold)
        self.returned: list[tuple[int, int]] = []  # raw pairs reserve returned or raised

    def state(self):
        ledger, keys = self.ledger, [(s, a) for s in self.SOLVERS for a in self.AUCTIONEERS]
        return ledger.to_json(), [(ledger.available(*k), ledger.pending(*k)) for k in keys]

    @rule(
        solver=st.sampled_from(SOLVERS[:2]),
        auctioneer=st.sampled_from(AUCTIONEERS),
        amount=st.fractions(min_value=0, max_value=40, max_denominator=1_000),
    )
    def deposit(self, solver, auctioneer, amount):
        self.ledger.deposit(solver, auctioneer, amount)
        key = (solver, auctioneer)
        self.deposited[key] = self.deposited.get(key, Fraction(0)) + amount

    @rule(
        solver=st.sampled_from(SOLVERS),
        auctioneer=st.sampled_from(AUCTIONEERS),
        bid=st.fractions(min_value=0, max_value=60, max_denominator=100) | st.just(Fraction(0)),
        gas=st.integers(1, GAMMA),
        # two objects per value, so the ledger's cache of checked terms flips
        gamma=st.sampled_from([GAMMA, int(str(GAMMA))]),
        price=st.sampled_from(
            [PHI, Fraction(3, 4_000_000), Fraction(1, 100_000), Fraction(1, 100_000), 0, Fraction(0)]
        ),
        near=st.none() | st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(10**6 + 1, 10**6)]),
        refused=st.none() | st.sampled_from(
            [("", "a", GAMMA, PHI), ("s1", None, GAMMA, PHI), ("s1", "a", True, PHI),
             ("s1", "a", 99_999, PHI), ("s1", "a", GAMMA, 0.5), ("s1", "a", GAMMA, -PHI)]
        ),
    )
    def reserve(self, solver, auctioneer, bid, gas, gamma, price, near, refused):
        before = self.state()
        if refused:
            with pytest.raises(ValueError):
                self.ledger.reserve(refused[0], refused[1], op("s1", gas=100_000), *refused[2:])
            assert self.state() == before
            return
        key = (solver, auctioneer)
        free = self.deposited.get(key, 0) - self.charged.get(key, 0) - self.held(key)
        if near is not None:  # aim the bid so the hold is that share of what is free
            bid = max(Fraction(0), free * near - price * gas) * gamma / gas
        needed = bid * gas / gamma + price * gas  # the documented formula
        operation = op(solver, bid, gas)
        try:
            reservation = self.ledger.reserve(solver, auctioneer, operation, gamma, price)
        except InsufficientEscrow as exc:
            assert (exc.needed, exc.available) == (needed, free) and needed > free
            assert self.state() == before
            self.returned += exc.args[2:]
            return
        assert needed <= free and reservation.amount == needed
        self.returned.append(reservation.amount_pair)
        self.live[reservation.handle] = (key, needed)

    @precondition(lambda self: self.live)
    @rule(data=st.data(), share=st.fractions(min_value=0, max_value=2, max_denominator=7))
    def settle(self, data, share):
        handle = data.draw(st.sampled_from(sorted(self.live)))
        key, hold = self.live[handle]
        charge = hold * share
        if charge > hold:
            before = self.state()
            with pytest.raises(ValueError, match="exceeds reserved"):
                self.ledger.settle_reservation(handle, charge)
            assert self.state() == before
            return
        balance = self.ledger.balance(*key)
        self.ledger.settle_reservation(handle, charge)
        del self.live[handle]
        self.charged[key] = self.charged.get(key, Fraction(0)) + charge
        self.settled.append((balance - self.ledger.balance(*key), hold))

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def cancel(self, data):
        handle = data.draw(st.sampled_from(sorted(self.live)))
        self.ledger.cancel_reservation(handle)
        del self.live[handle]

    def held(self, key):
        return sum((hold for k, hold in self.live.values() if k == key), Fraction(0))

    @invariant()
    def books_balance(self):
        ledger = self.ledger
        assert sum((amount for _, amount in ledger), Fraction(0)) == sum(
            self.deposited.values(), Fraction(0)
        ) - sum(self.charged.values(), Fraction(0))
        for s in self.SOLVERS:
            for a in self.AUCTIONEERS:
                key = (s, a)
                balance = self.deposited.get(key, 0) - self.charged.get(key, 0)
                assert ledger.balance(s, a) == balance
                assert ledger.available(s, a) == balance - self.held(key) >= 0
                assert sorted((r.handle, r.amount) for r in ledger.pending(s, a)) == sorted(
                    (h, hold) for h, (k, hold) in self.live.items() if k == key
                )
        assert all(charge <= hold for charge, hold in self.settled)

    @invariant()
    def pairs_stay_reduced(self):
        ledger = self.ledger
        pairs = list(ledger._balances.values()) + [r.amount_pair for r in ledger._pending.values()]
        pairs += [pair for per_solver in ledger._available.values() for pair in per_solver.values()]
        pairs += self.returned
        assert all(type(n) is type(d) is int and d > 0 and math.gcd(n, d) == 1 for n, d in pairs)


LedgerMachine.TestCase.settings = settings(
    derandomize=True, max_examples=60, stateful_step_count=30, deadline=None
)
TestLedgerMachine = LedgerMachine.TestCase


def test_cancelling_an_unknown_handle_raises_key_error():
    ledger = EscrowLedger()
    ledger.deposit("s1", "a", Fraction(100))
    handle = ledger.reserve("s1", "a", op(), GAMMA, PHI).handle
    ledger.cancel_reservation(handle)
    with pytest.raises(KeyError, match=f"^'no pending reservation with handle {handle}'$"):
        ledger.cancel_reservation(handle)
    assert ledger.available("s1", "a") == 100
