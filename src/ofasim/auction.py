"""Domain types for failure-cost order flow auctions.

An auction transaction bundles the user's operations (abstracted to their gas
consumption) with an ordered array of solver operations. Solvers bid for the
right to execute; operations run in descending bid order until one succeeds.
The gas available to solver operations is the budget

    gamma = tx_gas_limit − user_gas_consumed,

and an admitted array always satisfies ``sum(gas_reserved) <= gamma``.

Ordering is canonical and total: descending bid, then ascending gas_reserved,
then lexicographic solver id. Admission keeps the longest prefix of that order
that fits the budget (whole operations only — no partial admission) and at
most one operation per solver (its best-ranked one).

All types are immutable values; instances are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping

from .money import ZERO


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
        if not isinstance(self.tx_gas_limit, int) or self.tx_gas_limit <= 0:
            raise ValueError("tx_gas_limit must be a positive integer")
        if not isinstance(self.user_gas_consumed, int) or self.user_gas_consumed < 0:
            raise ValueError("user_gas_consumed must be a non-negative integer")
        if self.user_gas_consumed > self.tx_gas_limit:
            raise ValueError("user_gas_consumed exceeds tx_gas_limit")
        if self.gas_price < 0:
            raise ValueError("gas_price must be non-negative")

    def solver_gas_budget(self) -> int:
        """Gas left for solver operations; see :func:`solver_gas_budget`."""
        return solver_gas_budget(self)


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
        if not self.solver_id:
            raise ValueError("solver_id must be non-empty")
        if self.bid < 0:
            raise ValueError("bid must be non-negative")
        if not isinstance(self.gas_reserved, int) or self.gas_reserved <= 0:
            raise ValueError("gas_reserved must be a positive integer")
        if not isinstance(self.gas_used, int) or not 0 <= self.gas_used <= self.gas_reserved:
            raise ValueError("gas_used must lie in [0, gas_reserved]")

    def sort_key(self) -> tuple:
        """Canonical execution-order key: bid desc, gas asc, id asc."""
        return (-self.bid, self.gas_reserved, self.solver_id)


@dataclass(frozen=True)
class AuctionTransaction:
    """An admitted, canonically ordered auction transaction.

    Attributes:
        schedule: Gas accounting parameters.
        solver_ops: Operations in execution order (canonical order above).
        private_values: Optional map solver_id → private value, used only for
            payoff reporting.
    """

    schedule: GasSchedule
    solver_ops: tuple[SolverOperation, ...]
    private_values: Mapping[str, Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        ops = tuple(self.solver_ops)
        object.__setattr__(self, "solver_ops", ops)
        object.__setattr__(
            self, "private_values", MappingProxyType(dict(self.private_values))
        )
        budget = self.schedule.solver_gas_budget()
        if sum(op.gas_reserved for op in ops) > budget:
            raise ValueError("reserved gas exceeds the solver gas budget")
        ids = [op.solver_id for op in ops]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate solver_id in transaction")
        keys = [op.sort_key() for op in ops]
        if keys != sorted(keys):
            raise ValueError("solver_ops not in canonical descending-bid order")
        for value in self.private_values.values():
            if value < 0:
                raise ValueError("private values must be non-negative")

    @property
    def gamma(self) -> int:
        """Solver gas budget of this transaction."""
        return self.schedule.solver_gas_budget()


def solver_gas_budget(schedule: GasSchedule) -> int:
    """Gas available to solver operations.

    Args:
        schedule: Gas parameters of the transaction.

    Returns:
        ``tx_gas_limit − user_gas_consumed``.

    Raises:
        ValueError: If the budget is not positive (malformed auction).
    """
    budget = schedule.tx_gas_limit - schedule.user_gas_consumed
    if budget <= 0:
        raise ValueError("solver gas budget must be positive")
    return budget


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
    budget = schedule.solver_gas_budget()
    best: dict[str, SolverOperation] = {}
    for op in candidates:
        cur = best.get(op.solver_id)
        if cur is None or op.sort_key() < cur.sort_key():
            best[op.solver_id] = op
    admitted: list[SolverOperation] = []
    remaining = budget
    for op in sorted(best.values(), key=SolverOperation.sort_key):
        if op.gas_reserved > remaining:
            break
        admitted.append(op)
        remaining -= op.gas_reserved
    admitted_ids = {o.solver_id for o in admitted}
    values = {k: v for k, v in (private_values or {}).items() if k in admitted_ids}
    return AuctionTransaction(
        schedule=schedule, solver_ops=tuple(admitted), private_values=values
    )
