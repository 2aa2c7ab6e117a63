"""Settlement engine: failure costs, solver payoffs, beneficiary payout.

Operations execute in descending bid order until one succeeds. An operation
that executes and reverts is charged a failure cost proportional to the gas it
reserved:

    failure_cost = (bid − successful_bid) · gas_reserved / gamma   (a later,
                   lower-bidding operation succeeded)
    failure_cost = bid · gas_reserved / gamma                      (no
                   operation succeeded)

Operations after the first success are skipped and pay nothing. The
beneficiary receives the winning bid plus all failure costs; with no winner,
the payout degrades gracefully to the gas-weighted average of the bids, whose
worst case over all outcome patterns is the guaranteed minimum

    guaranteed_minimum = Σ bid_i · gas_reserved_i / gamma.

Design notes:
  - Settlement is a pure function of (transaction, scripted behaviors); no
    hidden state, so outcome patterns can be enumerated exhaustively.
  - ``_pattern_terms`` alone holds the payoff and payout rule, on integer
    numerators over ``scale · gamma`` (``scale`` = lcm of the bid
    denominators); ``settle``, ``settle_patterns`` and the Monte-Carlo
    pattern table all read it. The payout is the winner bid plus the
    collected failure costs, so conservation holds exactly, by construction.
  - ``settle`` and ``settle_patterns`` fill each result's maps in one pass over
    those terms and skip the constructor, whose copies guard a caller's maps:
    these are fresh, so they are only wrapped read-only.
  - Gas fees: each reverted operation pays gas_price · gas_used for itself;
    the winner pays for its own gas plus the user operations' gas. Summed
    across cases this accounts for exactly gas_price · total_gas_used.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Optional

from .auction import AuctionTransaction, Behavior
from .money import ZERO, require_amount, require_int


class OpOutcome(Enum):
    """Realized execution status of an operation within a settlement."""

    SUCCEEDED = "succeeded"
    REVERTED = "reverted"
    SKIPPED = "skipped"


@dataclass(frozen=True)
class SettlementResult:
    """Complete accounting for one settled transaction.

    Attributes:
        winner: Solver id of the succeeded operation, if any.
        executed: (solver_id, outcome) pairs in execution order.
        failure_costs: Penalties charged to reverted operations.
        solver_payoffs: Per-solver net payoff, using the transaction's
            private values (missing values default to zero).
        beneficiary_payout: Amount received by the auction beneficiary.
        total_gas_used: User gas plus gas used by executed solver operations.
        reverted_set: Solver ids of executed-and-reverted operations.
        winner_bid: Bid of the winner, if any.
        gas_charges: Gas fees paid per executing solver (the winner's charge
            includes the user operations' gas).
    """

    winner: Optional[str]
    executed: tuple[tuple[str, OpOutcome], ...]
    failure_costs: Mapping[str, Fraction]
    solver_payoffs: Mapping[str, Fraction]
    beneficiary_payout: Fraction
    total_gas_used: int
    reverted_set: tuple[str, ...]
    winner_bid: Optional[Fraction] = None
    gas_charges: Mapping[str, Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "failure_costs", MappingProxyType(dict(self.failure_costs))
        )
        object.__setattr__(
            self, "solver_payoffs", MappingProxyType(dict(self.solver_payoffs))
        )
        object.__setattr__(
            self, "gas_charges", MappingProxyType(dict(self.gas_charges))
        )


def failure_cost(
    failing_bid: Fraction,
    successful_bid: Optional[Fraction],
    gas_reserved: int,
    gamma: int,
) -> Fraction:
    """Penalty for an operation that executed and reverted.

    Args:
        failing_bid: Bid of the reverted operation.
        successful_bid: Bid of the operation that later succeeded, or None if
            no operation succeeded.
        gas_reserved: Gas the reverted operation reserved.
        gamma: Solver gas budget of the transaction.

    Returns:
        ``(failing_bid − successful_bid) · gas_reserved / gamma`` when a
        success followed, else ``failing_bid · gas_reserved / gamma``.

    Raises:
        ValueError: If gamma is not an ``int`` in [1, inf], gas_reserved not
            an ``int`` in [1, gamma], or a bid not a non-negative ``int`` or
            ``Fraction``, or on a sequencing violation: a successful bid above
            the failing bid (execution order forbids it).
    """
    require_int(gamma, "gamma", 1)
    require_int(gas_reserved, "gas_reserved", 1, gamma)
    require_amount(failing_bid, "failing_bid")
    if successful_bid is not None:
        require_amount(successful_bid, "successful_bid")
    share = Fraction(gas_reserved, gamma)
    if successful_bid is None:
        return failing_bid * share
    if successful_bid > failing_bid:
        raise ValueError("successful bid exceeds failing bid (sequencing bug)")
    return (failing_bid - successful_bid) * share


def _pattern_terms(
    tx: AuctionTransaction, first: int
) -> tuple[list[tuple[int, int, int]], Optional[tuple[int, int, int]], int]:
    """Integer numerators of the pattern in which op ``first`` wins.

    Ops before ``first`` revert, op ``first`` wins and later ops are skipped
    (``first == n``: every op reverts). Canonical order puts every reverted
    bid at or above the winner's, so no cost is negative. With
    ``den = scale · gamma`` and ``pd`` the gas price's denominator, returns
    ``(reverted, winner, payout)``: per reverted op ``(cost, fee, payoff)``
    over den, pd and den · pd; the winner's ``(fee, payoff, payoff_den)``,
    its fee counting the user's gas, over pd and over ``vd · pd · scale``
    (vd: its private value's denominator), or None; the payout over den.
    """
    gamma = tx.schedule.gamma
    scale, bids = tx.bid_scale, tx.scaled_bids
    den = scale * gamma
    price = tx.schedule.gas_price
    pn, pd = price.numerator, price.denominator
    ops = tx.solver_ops
    won = bids[first] if first < len(ops) else 0
    reverted = []
    collected = 0
    for op, bid in zip(ops[:first], bids):
        cost = (bid - won) * op.gas_reserved
        fee = pn * op.gas_used
        collected += cost
        reverted.append((cost, fee, -cost * pd - fee * den))
    payout = won * gamma + collected
    if first == len(ops):
        return reverted, None, payout
    winner = ops[first]
    fee = pn * (tx.schedule.user_gas_consumed + winner.gas_used)
    value = tx.private_values.get(winner.solver_id, ZERO)
    vn, vd = value.numerator, value.denominator
    payoff = vn * pd * scale - won * vd * pd - fee * vd * scale
    return reverted, (fee, payoff, vd * pd * scale), payout


def _settle_first_success(tx: AuctionTransaction, first: int) -> SettlementResult:
    """Settle ``tx`` as if op ``first`` were the first to succeed (see
    :func:`_pattern_terms`); a ``Fraction`` is built per returned amount."""
    reverted_terms, winner_terms, payout = _pattern_terms(tx, first)
    den = tx.bid_scale * tx.schedule.gamma
    pd = tx.schedule.gas_price.denominator
    ops = tx.solver_ops

    costs, gas_charges, payoffs, executed, reverted_set = {}, {}, {}, [], []
    total_gas_used = tx.schedule.user_gas_consumed
    for op, (cost, fee, payoff) in zip(ops, reverted_terms):
        sid = op.solver_id
        costs[sid] = Fraction(cost, den)
        gas_charges[sid] = Fraction(fee, pd)
        payoffs[sid] = Fraction(payoff, den * pd)
        executed.append((sid, OpOutcome.REVERTED))
        reverted_set.append(sid)
        total_gas_used += op.gas_used
    winner = winner_bid = None
    if winner_terms is not None:
        op = ops[first]
        winner, winner_bid = op.solver_id, op.bid
        fee, payoff, payoff_den = winner_terms
        gas_charges[winner] = Fraction(fee, pd)
        payoffs[winner] = Fraction(payoff, payoff_den)
        executed.append((winner, OpOutcome.SUCCEEDED))
        total_gas_used += op.gas_used
    for op in ops[first + 1 :]:
        payoffs[op.solver_id] = ZERO
        executed.append((op.solver_id, OpOutcome.SKIPPED))

    # built without __post_init__: its copies guard a caller's maps, and these are fresh
    result = object.__new__(SettlementResult)
    vars(result).update(
        winner=winner,
        executed=tuple(executed),
        failure_costs=MappingProxyType(costs),
        solver_payoffs=MappingProxyType(payoffs),
        beneficiary_payout=Fraction(payout, den),
        total_gas_used=total_gas_used,
        reverted_set=tuple(reverted_set),
        winner_bid=winner_bid,
        gas_charges=MappingProxyType(gas_charges),
    )
    return result


def settle(tx: AuctionTransaction) -> SettlementResult:
    """Execute a transaction's operations in order and account for the result.

    Operations run in the transaction's canonical order. Each scripted revert
    is charged its failure cost plus gas fees; the first scripted success wins,
    pays its bid plus gas fees (including the user operations' gas), and every
    later operation is skipped with zero payoff.

    Args:
        tx: A valid admitted transaction.

    Returns:
        The full accounting; an empty transaction yields no winner and a zero
        payout.
    """
    first = next(
        (i for i, op in enumerate(tx.solver_ops) if op.behavior is Behavior.SUCCEED),
        len(tx.solver_ops),
    )
    return _settle_first_success(tx, first)


def settle_patterns(tx: AuctionTransaction) -> list[SettlementResult]:
    """Settle every first-success pattern of ``tx``, ignoring its scripting.

    Row k < n is the settlement in which ops before position k revert and op
    k succeeds; row n is the one in which every op reverts.
    """
    return [_settle_first_success(tx, k) for k in range(len(tx.solver_ops) + 1)]


def solver_payoff(
    result: SettlementResult, solver_id: str, private_value: Fraction
) -> Fraction:
    """Net payoff of one solver under a supplied private value.

    Args:
        result: A settlement.
        solver_id: Solver whose payoff to compute.
        private_value: The solver's value for winning.

    Returns:
        ``private_value − bid − gas`` if it won; ``−failure_cost − gas`` if it
        reverted; 0 if it was skipped.

    Raises:
        KeyError: If the solver did not participate in the settlement.
        ValueError: If ``private_value`` is not a non-negative ``int`` or
            ``Fraction``.
    """
    require_amount(private_value, "private_value")
    if solver_id not in dict(result.executed):
        raise KeyError(f"unknown solver_id: {solver_id!r}")
    won = private_value - result.winner_bid if solver_id == result.winner else ZERO
    return (
        won
        - result.failure_costs.get(solver_id, ZERO)
        - result.gas_charges.get(solver_id, ZERO)
    )


def guaranteed_minimum(tx: AuctionTransaction) -> Fraction:
    """Worst-case beneficiary payout: the gas-weighted average of all bids.

    Equals the payout when every operation reverts, which is the minimum over
    all outcome patterns: ``Σ b̂ᵢ · gas_reservedᵢ`` over ``scale · gamma``.
    """
    weighted = sum(
        bid * op.gas_reserved for bid, op in zip(tx.scaled_bids, tx.solver_ops)
    )
    return Fraction(weighted, tx.bid_scale * tx.schedule.gamma)
