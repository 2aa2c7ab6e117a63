"""Escrow ledger with in-flight reservation accounting.

Solvers keep escrow balances with each auctioneer. Before an operation enters
an auction, the auctioneer reserves its worst-case cost (maximum failure cost
plus gas prepayment) against the solver's available balance, i.e. its balance
minus pending reservations:

    required_escrow = bid · gas_reserved / gamma + gas_price · gas_reserved

A reservation that exceeds the available balance is rejected and leaves the
ledger untouched. Settling charges the actual cost, never more than the
reserved amount, and frees the remainder at once. Hence available ≥ 0,
balance ≥ Σ pending (the escrow inequality), and charges never exceed deposits.

Each auctioneer's solver → available map is kept current by one exact Fraction
addition per deposit, reserve, settle or cancel: ``available`` and ``reserve``
are O(1), ``prefetch_snapshot`` is one O(solvers) copy, and only ``pending``
scans the reservations. Mutations take a single internal lock (linearizable).
"""

from __future__ import annotations

import itertools
import json
import threading
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Iterator, Mapping

from .auction import SolverOperation
from .money import ZERO, format_amount, parse_amount


class InsufficientEscrow(Exception):
    """Reservation rejected: available balance below the required escrow.

    Signals that the auctioneer must exclude this bid from the array;
    ``needed`` and ``available`` hold the two amounts compared.
    """

    def __init__(
        self, solver: str, auctioneer: str, needed: Fraction, available: Fraction
    ) -> None:
        super().__init__(
            f"solver {solver!r} needs {format_amount(needed)} escrow with "
            f"{auctioneer!r} but has {format_amount(available)} available"
        )
        self.needed, self.available = needed, available


def required_escrow(
    bid: Fraction, gas_reserved: int, gamma: int, gas_price: Fraction
) -> Fraction:
    """Worst-case penalty plus gas prepayment for one operation.

    Args:
        bid: The operation's bid.
        gas_reserved: Gas reserved for the operation.
        gamma: Solver gas budget of the auction.
        gas_price: Currency per gas unit.

    Returns:
        ``bid · gas_reserved / gamma + gas_price · gas_reserved``.

    Raises:
        ValueError: If gamma ≤ 0, gas_reserved > gamma, or bid or gas_price < 0.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if not 0 < gas_reserved <= gamma:
        raise ValueError("gas_reserved must lie in (0, gamma]")
    bn, bd = bid.numerator, bid.denominator
    pn, pd = gas_price.numerator, gas_price.denominator
    if bn < 0 or pn < 0:
        raise ValueError("bid and gas_price must be non-negative")
    return Fraction(gas_reserved * (bn * pd + pn * bd * gamma), bd * pd * gamma)


@dataclass(frozen=True)
class PendingReservation:
    """An in-flight reservation for one unsettled operation.

    Attributes:
        handle: Unique reservation identifier within the ledger.
        solver_id: Solver whose balance is encumbered.
        auctioneer_id: Auctioneer holding the escrow relationship.
        op_ref: Identity of the reserved operation (its solver id).
        amount: Reserved amount (the operation's required escrow).
    """

    handle: int
    solver_id: str
    auctioneer_id: str
    op_ref: str
    amount: Fraction


class EscrowLedger:
    """Per-(solver, auctioneer) balances with pending reservations."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._balances: dict[tuple[str, str], Fraction] = {}
        # auctioneer → solver → balance minus pending, on the keys of _balances
        self._available: dict[str, dict[str, Fraction]] = {}
        self._pending: dict[int, PendingReservation] = {}
        self._handles = itertools.count(1)

    def _post(self, key: tuple[str, str], balance: Fraction, available: Fraction):
        """Add to a balance and to its available amount; the lock is held."""
        self._balances[key] = self._balances.get(key, ZERO) + balance
        per_solver = self._available.setdefault(key[1], {})
        per_solver[key[0]] = per_solver.get(key[0], ZERO) + available

    def deposit(self, solver_id: str, auctioneer_id: str, amount: Fraction) -> None:
        """Credit a solver's escrow balance with an auctioneer."""
        if amount < 0:
            raise ValueError("deposit amount must be non-negative")
        with self._lock:
            self._post((solver_id, auctioneer_id), amount, amount)

    def balance(self, solver_id: str, auctioneer_id: str) -> Fraction:
        """Deposited balance, ignoring pending reservations."""
        with self._lock:
            return self._balances.get((solver_id, auctioneer_id), ZERO)

    def available(self, solver_id: str, auctioneer_id: str) -> Fraction:
        """Balance minus the sum of pending reservation amounts."""
        with self._lock:
            return self._available.get(auctioneer_id, {}).get(solver_id, ZERO)

    def pending(self, solver_id: str, auctioneer_id: str) -> tuple[PendingReservation, ...]:
        """Pending reservations for one (solver, auctioneer) pair."""
        with self._lock:
            return tuple(
                r
                for r in self._pending.values()
                if (r.solver_id, r.auctioneer_id) == (solver_id, auctioneer_id)
            )

    def reserve(
        self,
        solver_id: str,
        auctioneer_id: str,
        op: SolverOperation,
        gamma: int,
        gas_price: Fraction,
    ) -> PendingReservation:
        """Atomically reserve an operation's worst-case cost.

        Args:
            solver_id: Solver owning the operation.
            auctioneer_id: Auctioneer running the auction.
            op: The operation to reserve for.
            gamma: Solver gas budget of the auction.
            gas_price: Currency per gas unit.

        Returns:
            The pending reservation (its ``handle`` settles or cancels it).

        Raises:
            InsufficientEscrow: If available balance is below the required
                escrow; the ledger is left unchanged.
        """
        needed = required_escrow(op.bid, op.gas_reserved, gamma, gas_price)
        with self._lock:
            per_solver = self._available.get(auctioneer_id, {})
            available = per_solver.get(solver_id, ZERO)
            if available < needed:
                raise InsufficientEscrow(solver_id, auctioneer_id, needed, available)
            if needed:  # an unfunded pair holds only zeros and stays unmapped
                per_solver[solver_id] = available - needed
            reservation = PendingReservation(
                next(self._handles), solver_id, auctioneer_id, op.solver_id, needed
            )
            self._pending[reservation.handle] = reservation
            return reservation

    def settle_reservation(self, handle: int, charged: Fraction) -> None:
        """Release a reservation and deduct the actual charge.

        Args:
            handle: A pending reservation's handle.
            charged: Failure cost plus gas actually paid for the operation.

        Raises:
            KeyError: If the handle is not pending.
            ValueError: If the charge is negative or exceeds the reserved
                amount (a settlement-engine bug).
        """
        if charged < 0:
            raise ValueError("charge must be non-negative")
        with self._lock:
            reservation = self._pending.get(handle)
            if reservation is None:
                raise KeyError(f"no pending reservation with handle {handle}")
            if charged > reservation.amount:
                raise ValueError(
                    f"charge {format_amount(charged)} exceeds reserved "
                    f"{format_amount(reservation.amount)} (settlement-engine bug)"
                )
            del self._pending[handle]
            key = (reservation.solver_id, reservation.auctioneer_id)
            self._post(key, -charged, reservation.amount - charged)

    def cancel_reservation(self, handle: int) -> None:
        """Release a stale reservation without charging anything.

        Auctioneer-side escape hatch for operations that were reserved but
        never included in a settled transaction.

        Raises:
            KeyError: If the handle is not pending.
        """
        with self._lock:
            held = self._pending.pop(handle, None)
            if held is None:
                raise KeyError(f"no pending reservation with handle {handle}")
            if held.amount:  # nonzero only on a funded pair
                self._available[held.auctioneer_id][held.solver_id] += held.amount

    def prefetch_snapshot(self, auctioneer_id: str) -> Mapping[str, Fraction]:
        """Immutable solver → available-balance view for one auctioneer.

        The snapshot is detached from the ledger: it can back an entire
        auction (admission solvency checks, guarantee computation) without
        further ledger reads.
        """
        with self._lock:
            return MappingProxyType(dict(self._available.get(auctioneer_id, {})))

    def to_json(self) -> str:
        """Export balances as a solver → auctioneer → amount JSON document."""
        with self._lock:
            nested: dict[str, dict[str, str]] = {}
            for (solver, auctioneer), amount in sorted(self._balances.items()):
                nested.setdefault(solver, {})[auctioneer] = format_amount(amount)
        return json.dumps(nested, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, document: str) -> "EscrowLedger":
        """Import a ledger from the nested-map JSON document format."""
        data = json.loads(document)
        if not isinstance(data, dict):
            raise ValueError("escrow document must be an object")
        ledger = cls()
        for solver, per_auctioneer in data.items():
            if not isinstance(per_auctioneer, dict):
                raise ValueError(f"balances for solver {solver!r} must be an object")
            for auctioneer, amount in per_auctioneer.items():
                ledger.deposit(solver, auctioneer, parse_amount(amount))
        return ledger

    def __iter__(self) -> Iterator[tuple[tuple[str, str], Fraction]]:
        with self._lock:
            return iter(sorted(self._balances.items()))
