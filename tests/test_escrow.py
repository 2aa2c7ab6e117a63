"""Tests for the escrow ledger and reservation accounting."""

from __future__ import annotations

import random
import threading
from fractions import Fraction

import numpy as np
import pytest

from ofasim.auction import SolverOperation
from ofasim.escrow import (
    EscrowLedger,
    InsufficientEscrow,
    PendingReservation,
    required_escrow,
)
from ofasim.money import parse_amount

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
