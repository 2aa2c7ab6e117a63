"""Domain types for failure-cost order flow auctions.

An auction transaction bundles the user's operations (abstracted to their gas
consumption) with an ordered array of solver operations. Solvers bid for the
right to execute; operations run in descending bid order until one succeeds.
The gas available to solver operations is the budget

    gamma = tx_gas_limit − user_gas_consumed,

read as ``GasSchedule.gamma``. A schedule refuses a budget that is not
positive when it is built, and an admitted array always satisfies
``sum(gas_reserved) <= gamma``.

Ordering is canonical and total: descending bid, then ascending gas_reserved,
then lexicographic solver id. Admission keeps the longest prefix of that
order that fits the budget (whole operations only — no partial admission) and
at most one operation per solver (its best-ranked one).

Bids are ordered as integers: an array's bids are scaled once by the lcm of
their denominators, and the order keys are ``(−bid·scale, gas_reserved,
solver_id, index)``, compared without any Fraction arithmetic. Admission sorts
all candidates once by these keys and walks that ranking, skipping a solver it
has already admitted. A transaction keeps its scaled bids for the settlement
kernel.

All types are immutable values; instances are safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .money import ZERO, require_amount, require_id, require_int


class Behavior(Enum):
    """Scripted execution outcome of a solver operation.

    Execution is abstract: a scenario declares whether each operation would
    succeed or revert if it runs. No VM is simulated.
    """

    SUCCEED = "succeed"
    REVERT = "revert"


@dataclass(frozen=True)
class GasSchedule:
    """Gas accounting parameters of one auction transaction.

    Attributes:
        tx_gas_limit: Total gas limit of the transaction.
        user_gas_consumed: Gas consumed by the user's own operations.
        gas_price: Currency charged per unit of gas actually used.
    """

    tx_gas_limit: int
    user_gas_consumed: int
    gas_price: Fraction = ZERO

    def __post_init__(self) -> None:
        require_int(self.tx_gas_limit, "tx_gas_limit", 1)
        require_int(self.user_gas_consumed, "user_gas_consumed", 0)
        if self.user_gas_consumed >= self.tx_gas_limit:
            raise ValueError("solver gas budget tx_gas_limit - user_gas_consumed must be positive")
        require_amount(self.gas_price, "gas_price")

    @property
    def gamma(self) -> int:
        """The solver gas budget ``tx_gas_limit − user_gas_consumed``, positive
        by construction."""
        return self.tx_gas_limit - self.user_gas_consumed


@dataclass(frozen=True)
class SolverOperation:
    """One solver's bundled bid and execution payload.

    Attributes:
        solver_id: Opaque identifier; at most one operation per solver per
            transaction.
        bid: Amount paid to the beneficiary if this operation succeeds.
        gas_reserved: Gas reserved for the operation (used for penalties and
            admission).
        gas_used: Gas actually consumed when the operation executes; defaults
            to ``gas_reserved``.
        behavior: Scripted outcome if the operation runs.
    """

    solver_id: str
    bid: Fraction
    gas_reserved: int
    gas_used: int | None = None
    behavior: Behavior = Behavior.REVERT

    def __post_init__(self) -> None:
        if self.gas_used is None:
            object.__setattr__(self, "gas_used", self.gas_reserved)
        require_id(self.solver_id, "solver_id")
        require_amount(self.bid, "bid")
        require_int(self.gas_reserved, "gas_reserved", 1)
        require_int(self.gas_used, "gas_used", 0, self.gas_reserved)

    def sort_key(self) -> tuple:
        """Canonical execution-order key: bid desc, gas asc, id asc.

        Orders exactly as the integer keys that admission and the order check
        use (see :func:`_order_keys`).
        """
        return (-self.bid, self.gas_reserved, self.solver_id)


def _order_keys(ops: Sequence[SolverOperation]) -> tuple[int, list[tuple], list[int]]:
    """``(scale, keys, denominators)``: the lcm of the bid denominators, each op's
    integer key ``(−bid·scale, gas_reserved, solver_id, index)`` and bid
    denominator; the index only breaks a tie between two ops of one solver."""
    ratios = [op.bid.as_integer_ratio() for op in ops]
    dens = [d for _, d in ratios]
    scale = math.lcm(*dens)
    keys = [
        (-n * (scale // d), op.gas_reserved, op.solver_id, i)
        for i, (op, (n, d)) in enumerate(zip(ops, ratios))
    ]
    return scale, keys, dens


@dataclass(frozen=True)
class AuctionTransaction:
    """An admitted, canonically ordered auction transaction.

    Attributes:
        schedule: Gas accounting parameters.
        solver_ops: Operations in execution order (canonical order above).
        private_values: Optional map solver_id → private value, used only for
            payoff reporting.
        bid_scale: Set at construction: the lcm of the bid denominators.
        scaled_bids: Set at construction: each op's bid times ``bid_scale``,
            an integer, in execution order (the settlement kernel's input).

    :func:`admit_operations` skips only the constructor's checks that its
    construction guarantees (budget, distinct ids, order), not the private values.
    """

    schedule: GasSchedule
    solver_ops: tuple[SolverOperation, ...]
    private_values: Mapping[str, Fraction] = field(default_factory=dict)
    bid_scale: int = field(init=False, repr=False, compare=False)
    scaled_bids: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ops = tuple(self.solver_ops)
        if sum(op.gas_reserved for op in ops) > self.schedule.gamma:
            raise ValueError("reserved gas exceeds the solver gas budget")
        ids = [op.solver_id for op in ops]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate solver_id in transaction")
        scale, keys, _ = _order_keys(ops)
        if any(later < earlier for earlier, later in zip(keys, keys[1:])):
            raise ValueError("solver_ops not in canonical descending-bid order")
        bids = tuple(-key[0] for key in keys)
        self._finish(ops, MappingProxyType(dict(self.private_values)), scale, bids)

    def _finish(self, *values: object) -> None:
        """Set the fields after ``schedule`` to ``values``, in order, then check
        the private values: the part of construction admission goes through."""
        names = ("solver_ops", "private_values", "bid_scale", "scaled_bids")
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)
        for value in self.private_values.values():
            require_amount(value, "private value")


def admit_operations(
    candidates: Iterable[SolverOperation],
    schedule: GasSchedule,
    private_values: Mapping[str, Fraction] | None = None,
) -> AuctionTransaction:
    """Build a transaction from the best-bidding candidates that fit.

    Candidates are ranked in canonical order (bid desc, gas asc, id asc) with
    at most one operation per solver (its best-ranked one); the admitted array
    is the longest prefix whose cumulative gas_reserved fits the budget.
    Admission is a function of the candidate multiset only — shuffling the
    input yields an identical transaction.

    Args:
        candidates: Individually valid solver operations.
        schedule: Gas parameters; fixes the budget.
        private_values: Optional solver_id → private value map for reporting.

    Returns:
        The admitted transaction (possibly with no operations).
    """
    ops = list(candidates)
    full_scale, keys, dens = _order_keys(ops)
    chosen, admitted_ids = [], set()  # the admitted keys, in order, and their ids
    remaining = schedule.gamma
    # a solver's first key in the ranking is its best-ranked op
    for key in sorted(keys):
        if key[2] in admitted_ids:
            continue
        if key[1] > remaining:
            break
        chosen.append(key)
        admitted_ids.add(key[2])
        remaining -= key[1]
    values = {k: v for k, v in (private_values or {}).items() if k in admitted_ids}
    # the transaction's scale, the lcm of the admitted denominators, divides full_scale
    scale = math.lcm(*[dens[key[3]] for key in chosen])
    factor = full_scale // scale
    bids = tuple(-key[0] // factor for key in chosen)
    # built without __post_init__, whose other checks hold by construction
    tx = object.__new__(AuctionTransaction)
    object.__setattr__(tx, "schedule", schedule)
    tx._finish(tuple(ops[key[3]] for key in chosen), MappingProxyType(values), scale, bids)
    return tx
