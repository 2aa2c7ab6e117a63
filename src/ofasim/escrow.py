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

Each auctioneer's solver → available map is kept current by one exact update
per deposit, reserve, settle or cancel, each one in-place addition of a
reduced pair to one map entry: ``available`` and ``reserve`` are
O(1), ``prefetch_snapshot`` is one O(solvers) copy, and only ``pending`` scans
the reservations. Mutations take a single internal lock (linearizable).
``reserve`` checks both ids and the op's gas against gamma on every call, but
checks and splits an auction's gamma and gas_price once: it reuses them while
the same two objects come back, as they do for every candidate of an order.
Per candidate it tests the ids and gas by exact type and range inline, calling
a ``require_*`` check only to word a refusal, computes the required escrow in
one call shared with :func:`required_escrow`, and writes the subtraction from
the available entry out in place.

Every stored amount is a reduced integer pair ``(numerator, denominator)``,
one per entry: a common denominator per auctioneer would carry every auction's
gamma and grow with every order. A ``Fraction`` is built only for a value
returned.
"""

from __future__ import annotations

import itertools
import json
import threading
from fractions import Fraction
from math import gcd
from typing import Iterator, Mapping, NamedTuple

from .auction import SolverOperation
from .money import format_amount, parse_amount, require_amount, require_id, require_int

_ZERO = (0, 1)  # the pair of an absent entry


class InsufficientEscrow(Exception):
    """Reservation rejected: available balance below the required escrow.

    Signals that the auctioneer must exclude this bid from the array. Its args
    are ``(solver, auctioneer, needed, available)``, each amount a Fraction or,
    as the ledger raises it, a reduced ``(numerator, denominator)`` pair. The
    properties, repr and message give Fractions, built only when read.
    """

    @property
    def needed(self) -> Fraction:
        """The required escrow of the refused operation."""
        return _fraction(self.args[2])

    @property
    def available(self) -> Fraction:
        """The solver's available amount when it was refused."""
        return _fraction(self.args[3])

    def __repr__(self) -> str:
        return f"{type(self).__name__}{(*self.args[:2], self.needed, self.available)!r}"

    def __str__(self) -> str:
        return (
            f"solver {self.args[0]!r} needs {format_amount(self.needed)} escrow with "
            f"{self.args[1]!r} but has {format_amount(self.available)} available"
        )


def _fraction(amount: Fraction | tuple[int, int]) -> Fraction:
    """An amount given as a Fraction or a ``(numerator, denominator)`` pair."""
    return Fraction(*amount) if type(amount) is tuple else Fraction(amount)


def _split_terms(gamma: int, gas_reserved: int, gas_price: Fraction) -> tuple[int, int, int]:
    """Check gamma, then gas_reserved, then gas_price; return the auction's
    terms as ``(pn·gamma, pd, pd·gamma)`` for ``gas_price = pn/pd``."""
    require_int(gamma, "gamma", 1)
    require_int(gas_reserved, "gas_reserved", 1, gamma)
    require_amount(gas_price, "gas_price")
    pn, pd = gas_price.as_integer_ratio()
    return pn * gamma, pd, pd * gamma


def _escrow_pair(bid: Fraction, gas_reserved: int, terms: tuple[int, int, int]) -> tuple[int, int]:
    """:func:`required_escrow` as a reduced pair, from a checked bid and gas
    and the auction's :func:`_split_terms`."""
    pg, pd, dg = terms
    bn, bd = bid.as_integer_ratio()
    n, d = gas_reserved * (bn * pd + pg * bd), bd * dg
    g = gcd(n, d)
    return n // g, d // g


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
        ValueError: If bid or gas_price is not an ``int`` or ``Fraction`` or
            is negative, gamma is not an ``int`` in [1, inf], or gas_reserved
            is not an ``int`` in [1, gamma].
    """
    require_amount(bid, "bid")
    terms = _split_terms(gamma, gas_reserved, gas_price)
    return Fraction(*_escrow_pair(bid, gas_reserved, terms))


def _add(entries: dict, key: object, n: int, d: int) -> bool:
    """Add ``n/d`` to ``entries[key]`` (zero when absent) in place as a reduced
    pair, unless the sum is negative; return whether it did. The lock is held."""
    a, b = entries.get(key, _ZERO)
    num = a * d + n * b
    if num < 0:
        return False
    den = b * d
    g = gcd(num, den)
    entries[key] = (num // g, den // g)
    return True


class PendingReservation(NamedTuple):
    """An in-flight reservation for one unsettled operation (a named tuple).

    Attributes:
        handle: Unique reservation identifier within the ledger.
        solver_id: Solver whose balance is encumbered.
        auctioneer_id: Auctioneer holding the escrow relationship.
        op_ref: Identity of the reserved operation (its solver id).
        amount_pair: Reserved amount (the operation's required escrow) as a
            reduced ``(numerator, denominator)`` pair; the ``amount``
            property gives it as a ``Fraction``.
    """

    handle: int
    solver_id: str
    auctioneer_id: str
    op_ref: str
    amount_pair: tuple[int, int]

    @property
    def amount(self) -> Fraction:
        """Reserved amount (the operation's required escrow)."""
        return Fraction(*self.amount_pair)


class _Snapshot(Mapping[str, Fraction]):
    """Read-only solver → available amount view over a private copy of the
    ledger's pairs; each lookup builds its ``Fraction``."""

    __slots__ = ("_pairs",)

    def __init__(self, pairs: dict[str, tuple[int, int]]) -> None:
        self._pairs = pairs

    def __getitem__(self, solver_id: str) -> Fraction:
        return Fraction(*self._pairs[solver_id])

    def __iter__(self) -> Iterator[str]:
        return iter(self._pairs)

    def __len__(self) -> int:
        return len(self._pairs)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self)!r})"


class EscrowLedger:
    """Per-(solver, auctioneer) balances with pending reservations."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._balances: dict[tuple[str, str], tuple[int, int]] = {}
        # auctioneer → solver → balance minus pending, on the keys of _balances
        self._available: dict[str, dict[str, tuple[int, int]]] = {}
        self._pending: dict[int, PendingReservation] = {}
        self._handles = itertools.count(1)
        # reserve's last checked (gamma, gas_price, split); no gamma is object()
        self._terms: tuple = (object(), None, None)

    def deposit(self, solver_id: str, auctioneer_id: str, amount: Fraction) -> None:
        """Credit a solver's escrow balance with an auctioneer."""
        require_id(solver_id, "solver_id")
        require_id(auctioneer_id, "auctioneer_id")
        require_amount(amount, "deposit amount")
        n, d = amount.numerator, amount.denominator
        with self._lock:
            _add(self._balances, (solver_id, auctioneer_id), n, d)
            _add(self._available.setdefault(auctioneer_id, {}), solver_id, n, d)

    def balance(self, solver_id: str, auctioneer_id: str) -> Fraction:
        """Deposited balance, ignoring pending reservations."""
        with self._lock:
            return Fraction(*self._balances.get((solver_id, auctioneer_id), _ZERO))

    def available(self, solver_id: str, auctioneer_id: str) -> Fraction:
        """Balance minus the sum of pending reservation amounts."""
        with self._lock:
            return Fraction(*self._available.get(auctioneer_id, {}).get(solver_id, _ZERO))

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
        # exact types pass here; anything else goes to the checks that word the refusal
        if not (
            type(solver_id) is str and solver_id and type(auctioneer_id) is str and auctioneer_id
        ):
            require_id(solver_id, "solver_id")
            require_id(auctioneer_id, "auctioneer_id")
        gas = op.gas_reserved
        # checked values are exact and immutable, so the same two objects need no check
        last_gamma, last_price, terms = self._terms
        if gamma is not last_gamma or gas_price is not last_price:
            terms = _split_terms(gamma, gas, gas_price)
            self._terms = (gamma, gas_price, terms)
        elif type(gas) is not int or not 0 < gas <= gamma:
            require_int(gas, "gas_reserved", 1, gamma)
        n, d = needed = _escrow_pair(op.bid, gas, terms)
        with self._lock:
            # a zero escrow always fits, and an unfunded pair stays unmapped
            if n:
                per_solver = self._available.get(auctioneer_id)
                a, b = available = per_solver.get(solver_id, _ZERO) if per_solver else _ZERO
                # _add(per_solver, solver_id, -n, d), written out: one call less per candidate
                rest = a * d - n * b
                if rest < 0:
                    raise InsufficientEscrow(solver_id, auctioneer_id, needed, available)
                den = b * d
                g = gcd(rest, den)
                per_solver[solver_id] = (rest // g, den // g)
            handle = next(self._handles)
            reservation = self._pending[handle] = tuple.__new__(
                PendingReservation, (handle, solver_id, auctioneer_id, op.solver_id, needed)
            )
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
        require_amount(charged, "charge")
        cn, cd = charged.numerator, charged.denominator
        with self._lock:
            reservation = self._pending.get(handle)
            if reservation is None:
                raise KeyError(f"no pending reservation with handle {handle}")
            an, ad = reservation.amount_pair
            if cn * ad > an * cd:
                raise ValueError(
                    f"charge {format_amount(charged)} exceeds reserved "
                    f"{format_amount(reservation.amount)} (settlement-engine bug)"
                )
            del self._pending[handle]
            solver, auctioneer = reservation.solver_id, reservation.auctioneer_id
            _add(self._balances, (solver, auctioneer), -cn, cd)
            _add(self._available.setdefault(auctioneer, {}), solver, an * cd - cn * ad, ad * cd)

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
            n, d = held.amount_pair
            if n:  # nonzero only on a funded pair
                _add(self._available[held.auctioneer_id], held.solver_id, n, d)

    def prefetch_snapshot(self, auctioneer_id: str) -> Mapping[str, Fraction]:
        """Immutable solver → available-balance view for one auctioneer.

        The snapshot is detached from the ledger: it can back an entire
        auction (admission solvency checks, guarantee computation) without
        further ledger reads.
        """
        with self._lock:
            return _Snapshot(dict(self._available.get(auctioneer_id, {})))

    def to_json(self) -> str:
        """Export balances as a solver → auctioneer → amount JSON document."""
        with self._lock:
            nested: dict[str, dict[str, str]] = {}
            for (solver, auctioneer), pair in sorted(self._balances.items()):
                nested.setdefault(solver, {})[auctioneer] = format_amount(Fraction(*pair))
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
            balances = sorted(self._balances.items())
        return iter([(key, Fraction(*pair)) for key, pair in balances])
