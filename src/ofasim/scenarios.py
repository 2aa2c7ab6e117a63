"""Simulation models and the exact runners, without numpy.

Every model rides in a ``SimConfig``, and ``run_simulation`` dispatches on it:
``run_spoof_attack`` and ``run_timeline`` run here, and the three Monte-Carlo
runners in ``ofasim.simulation``, which loads numpy on their first run.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from operator import attrgetter
from typing import Mapping, Optional, Sequence, Union

from .auction import Behavior, GasSchedule, SolverOperation, admit_operations
from .censorship import CensorshipScenario, censorship_resistance
from .escrow import required_escrow
from .money import ZERO, format_amount, require_amount, require_exact, require_float, require_int
from .settlement import guaranteed_minimum, settle

#: Most operations one throughput rung may hold (each is a bid and a cost row).
MAX_RUNG_OPS = 1_000_000


# ---------------------------------------------------------------------------
# models and configuration


def _check_game(model: Union[IidFailure, NormalValuation]) -> None:
    """Check the fields the two bidding games share; keep ``bids`` as a tuple."""
    require_int(model.n, "n", 1)
    object.__setattr__(model, "bids", tuple(model.bids))
    for bid in model.bids:
        require_amount(bid, "bid")
    if len(model.bids) != model.n:
        raise ValueError("bids must have exactly n entries")
    require_int(model.gas_per_op, "gas_per_op", 1)
    require_amount(model.gas_price, "gas_price")


@dataclass(frozen=True)
class IidFailure:
    """Common-value game with an exogenous iid failure probability.

    Attributes:
        n: Number of solvers.
        q: Failure probability of each executed operation, in [0, 1]; stored
            as a float.
        v: Common value of winning (private value of every solver).
        bids: Per-solver bids; must have exactly n entries.
        gas_per_op: Uniform reserved gas per operation.
        gas_price: Currency per gas unit (0 keeps the game fee-free).
    """

    n: int
    q: float
    v: Fraction
    bids: tuple[Fraction, ...]
    gas_per_op: int = 100_000
    gas_price: Fraction = ZERO

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", require_float(self.q, "q", 0, 1))
        require_amount(self.v, "v")
        _check_game(self)


@dataclass(frozen=True)
class NormalValuation:
    """Game with normally drifting private valuations.

    Attributes:
        n: Number of solvers.
        v: Mean valuation at execution time, in (-inf, inf); stored as a float.
        sigma: Standard deviation of the valuation, in (0, inf) and at least
            2**-40 · max(|v|, bids), so floats resolve the valuation near a
            bid; stored as a float.
        bids: Per-solver bids.
        gas_per_op: Uniform reserved gas per operation.
        gas_price: Currency per gas unit.
    """

    n: int
    v: float
    sigma: float
    bids: tuple[Fraction, ...]
    gas_per_op: int = 100_000
    gas_price: Fraction = ZERO

    def __post_init__(self) -> None:
        object.__setattr__(self, "v", require_float(self.v, "v"))
        object.__setattr__(self, "sigma", require_float(self.sigma, "sigma", 0, strict=True))
        _check_game(self)
        # below this no float X can land strictly between a bid and its
        # neighbours as the normal law says it should
        if self.sigma * 2**40 < max(abs(self.v), *self.bids):
            raise ValueError("sigma must be at least 2**-40 times max(|v|, bids)")


@dataclass(frozen=True)
class ThroughputSweep:
    """Failure-cost-vs-budget experiment template.

    At each budget the array is refilled to capacity with operations of the
    template gas, bids spread linearly from bid_high down to bid_low. The op
    at the median bid rank ⌈N/2⌉ is the measured one: it always executes and
    reverts, every higher-bidding op reverts too, and the lower-bidding ops
    fail independently with probability q — so the measured expectation
    isolates how the penalty itself scales with the budget. Each gamma must
    hold from one to ``MAX_RUNG_OPS`` operations of ``gas_per_op``; q lies
    in (0, 1) and is stored as a float.
    """

    gammas: tuple[int, ...]
    gas_per_op: int = 100_000
    bid_high: Fraction = Fraction(100)
    bid_low: Fraction = Fraction(50)
    q: float = 0.5

    def __post_init__(self) -> None:
        object.__setattr__(self, "gammas", tuple(self.gammas))
        if not self.gammas:
            raise ValueError("gammas must be non-empty")
        require_int(self.gas_per_op, "gas_per_op", 1)
        widest = (MAX_RUNG_OPS + 1) * self.gas_per_op - 1
        for index, gamma in enumerate(self.gammas):
            require_int(gamma, f"gammas[{index}]", self.gas_per_op, widest)
        object.__setattr__(self, "q", require_float(self.q, "q", 0, 1, strict=True))
        require_amount(self.bid_high, "bid_high")
        require_amount(self.bid_low, "bid_low")
        if self.bid_low > self.bid_high:
            raise ValueError("need 0 <= bid_low <= bid_high")


def _rung(
    model: ThroughputSweep, gamma: int
) -> tuple[list[int], int, int, list[int], int]:
    """``median_failure_costs`` on integer numerators: ``(bids, bid_den,
    median, costs, cost_den)``, each bid over ``bid_den``, each cost over
    ``cost_den``."""
    require_int(gamma, "gamma", model.gas_per_op, (MAX_RUNG_OPS + 1) * model.gas_per_op - 1)
    count = gamma // model.gas_per_op
    steps = max(count - 1, 1)
    high, low = model.bid_high, model.bid_low
    bid_den = high.denominator * low.denominator * steps
    # bid i is high − i·step; high and step are top and drop over bid_den
    top = high.numerator * low.denominator * steps
    drop = high.numerator * low.denominator - low.numerator * high.denominator
    bids = [top - drop * i for i in range(count)]
    median = (count + 1) // 2 - 1
    gas = model.gas_per_op
    # the failure cost (b_median − b_winner) · gas / gamma, then b_median · gas / gamma
    costs = [drop * below * gas for below in range(1, count - median)]
    costs.append(bids[median] * gas)
    return bids, bid_den, median, costs, bid_den * gamma


def median_failure_costs(
    model: ThroughputSweep, gamma: int
) -> tuple[list[Fraction], int, list[Fraction]]:
    """One rung of a throughput sweep, in exact amounts.

    Returns the bids of the array refilled at ``gamma`` (execution order),
    the position of the measured rank-⌈N/2⌉ op, and that op's failure cost
    when the j-th op below it is the first to succeed; the last entry is the
    cost when none does.
    """
    bids, bid_den, median, costs, cost_den = _rung(model, gamma)
    return (
        [Fraction(bid, bid_den) for bid in bids],
        median,
        [Fraction(cost, cost_den) for cost in costs],
    )


@dataclass(frozen=True)
class SpoofAttack:
    """Gas-exhaustion censorship attempt against a rival field.

    Attributes:
        scenario: Rivals (at least one), budget, gas price and attacker value.
        bid_margin: How far above the best rival bid the attacker bids. A
            zero or negative margin models a failed outbid attempt (the
            attacker then sorts behind the best rival); the attacker's bid,
            best rival bid + bid_margin, must be non-negative.
        attacker_gas: Gas the attacker reserves; defaults to the full
            budget gamma. Anything below ``gamma − min rival gas + 1``
            leaves room for at least one rival.
        attacker_behavior: Scripted outcome of the attacker's op if it runs.
    """

    scenario: CensorshipScenario
    bid_margin: Fraction = Fraction(1)
    attacker_gas: Optional[int] = None
    attacker_behavior: Behavior = Behavior.REVERT

    def __post_init__(self) -> None:
        require_exact(self.bid_margin, "bid_margin")
        if max(bid for bid, _ in self.scenario.rival_ops) + self.bid_margin < 0:
            raise ValueError("best rival bid + bid_margin must be non-negative")
        if self.attacker_gas is not None:
            require_int(self.attacker_gas, "attacker_gas", 1, self.scenario.gamma)


@dataclass(frozen=True)
class TimelineConfig:
    """Latency parameters of the asynchronous auction pipeline (ms)."""

    user_latency_ms: int = 50
    auction_duration_ms: int = 300
    execution_delay_ms: int = 50

    def __post_init__(self) -> None:
        for name in ("user_latency_ms", "auction_duration_ms", "execution_delay_ms"):
            require_int(getattr(self, name), name, 0)


@dataclass(frozen=True)
class Timeline:
    """Timeline model: latencies plus an optional auction to run through it.

    Candidates and an escrow snapshot belong to that auction: without a
    schedule, both must be empty.
    """

    config: TimelineConfig
    schedule: Optional[GasSchedule] = None
    candidates: tuple[SolverOperation, ...] = ()
    escrow_snapshot: Optional[Mapping[str, Fraction]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "candidates", tuple(self.candidates))
        for amount in (self.escrow_snapshot or {}).values():
            require_amount(amount, "escrow snapshot amount")
        if self.schedule is None and (self.candidates or self.escrow_snapshot):
            raise ValueError("solver ops and an escrow snapshot need a schedule")


Model = Union[IidFailure, NormalValuation, ThroughputSweep, SpoofAttack, Timeline]


@dataclass(frozen=True)
class SimConfig:
    """A reproducible simulation run: trial count, RNG seed, and model."""

    trials: int
    seed: int
    model: Model

    def __post_init__(self) -> None:
        require_int(self.trials, "trials", 1, 2**63 - 1)
        require_int(self.seed, "seed", 0, 2**64 - 1)


# ---------------------------------------------------------------------------
# runners


def run_spoof_attack(config: SimConfig) -> dict:
    """Settle a censorship attempt and its attack-free counterfactual.

    The attacker outbids the best rival by ``bid_margin`` and reserves
    ``attacker_gas`` (default: the full budget gamma, leaving no room for
    anyone else). Rivals are honest (would succeed if executed). Reports
    admission outcomes, realized attacker cost, both beneficiary payouts,
    and the predicted resistance floor, which any blocking configuration
    must exceed.
    """
    model = config.model
    if not isinstance(model, SpoofAttack):
        raise TypeError("run_spoof_attack requires a SpoofAttack model")
    scenario = model.scenario
    schedule = GasSchedule(
        tx_gas_limit=scenario.gamma,
        user_gas_consumed=0,
        gas_price=scenario.gas_price,
    )
    rivals = [
        SolverOperation(
            solver_id=f"r{index:03d}",
            bid=bid,
            gas_reserved=gas,
            gas_used=gas,
            behavior=Behavior.SUCCEED,
        )
        for index, (bid, gas) in enumerate(scenario.rival_ops)
    ]
    best_bid = max(bid for bid, _ in scenario.rival_ops)
    attacker_gas = scenario.gamma if model.attacker_gas is None else model.attacker_gas
    attacker = SolverOperation(
        solver_id="attacker",
        bid=best_bid + model.bid_margin,
        gas_reserved=attacker_gas,
        gas_used=attacker_gas,
        behavior=model.attacker_behavior,
    )

    baseline = settle(admit_operations(rivals, schedule))
    attack_tx = admit_operations(rivals + [attacker], schedule)
    attack = settle(attack_tx)

    admitted = [op.solver_id for op in attack_tx.solver_ops]
    attacker_admitted = attacker.solver_id in admitted
    rivals_admitted = [sid for sid in admitted if sid != attacker.solver_id]
    # no private values: minus the payoff is the bid (if it won), cost and fee
    attacker_cost = -attack.solver_payoffs.get(attacker.solver_id, ZERO)

    return {
        "model": "spoof_attack",
        "attacker_bid": format_amount(attacker.bid),
        "attacker_gas": attacker_gas,
        "attacker_admitted": attacker_admitted,
        "rivals_admitted": rivals_admitted,
        "rivals_blocked": attacker_admitted and not rivals_admitted,
        "attack_winner": attack.winner,
        "attacker_failure_cost": format_amount(attack.failure_costs.get(attacker.solver_id, ZERO)),
        "attacker_gas_fee": format_amount(attack.gas_charges.get(attacker.solver_id, ZERO)),
        "attacker_total_cost": format_amount(attacker_cost),
        "attacker_value": format_amount(scenario.attacker_value),
        "beneficiary_with_attack": format_amount(attack.beneficiary_payout),
        "beneficiary_without_attack": format_amount(baseline.beneficiary_payout),
        "predicted_resistance": format_amount(censorship_resistance(scenario)),
    }


# ---------------------------------------------------------------------------
# timeline simulation


class TimelineEventKind(Enum):
    """Events of the asynchronous auction pipeline."""

    ESCROW_PREFETCH = "escrow_prefetch"
    ORDER_PLACED = "order_placed"
    ORDER_RECEIVED = "order_received"
    AUCTION_OPENED = "auction_opened"
    BID_ADMITTED = "bid_admitted"
    BID_REJECTED = "bid_rejected"
    AUCTION_CLOSED = "auction_closed"
    GUARANTEE_ISSUED = "guarantee_issued"
    GUARANTEE_RECEIVED = "guarantee_received"
    EXECUTION_SUBMITTED = "execution_submitted"
    SETTLEMENT_CONFIRMED = "settlement_confirmed"


#: Event kinds that touch the blockchain (reads or writes).
CHAIN_ACCESS_KINDS = frozenset(
    {
        TimelineEventKind.ESCROW_PREFETCH,
        TimelineEventKind.EXECUTION_SUBMITTED,
        TimelineEventKind.SETTLEMENT_CONFIRMED,
    }
)


@dataclass(frozen=True)
class TimelineEvent:
    """One entry of the simulated event log."""

    at_ms: int
    kind: TimelineEventKind
    note: str = ""


def chain_quiet_between_order_and_guarantee(events: Sequence[TimelineEvent]) -> bool:
    """True when no chain access occurs between order receipt and guarantee.

    Structural check on the event log: scans the slice between the
    ORDER_RECEIVED and GUARANTEE_ISSUED entries for chain-access kinds.
    """
    kinds = [event.kind for event in events]
    start = kinds.index(TimelineEventKind.ORDER_RECEIVED)
    end = kinds.index(TimelineEventKind.GUARANTEE_ISSUED)
    return not any(kind in CHAIN_ACCESS_KINDS for kind in kinds[start + 1 : end])


def run_timeline(config: SimConfig) -> dict:
    """Discrete-event simulation of the asynchronous auction pipeline.

    Escrow balances are prefetched (a chain read) before the order arrives;
    from order receipt to guarantee issuance the auctioneer works only from
    cached data — bid solvency checks use the prefetched snapshot, and the
    guaranteed minimum is computed from the admitted bids alone. Execution is
    submitted on-chain only after the guarantee is issued.

    Report includes the full event log, the user-side guarantee timestamp
    (user latency out + auction duration + user latency back), the guarantee
    value, and the structural chain-quiet flag.
    """
    model = config.model
    if not isinstance(model, Timeline):
        raise TypeError("run_timeline requires a Timeline model")
    cfg = model.config
    order_received = cfg.user_latency_ms
    auction_closed = order_received + cfg.auction_duration_ms
    guarantee_received = auction_closed + cfg.user_latency_ms
    execution_submitted = auction_closed + cfg.execution_delay_ms
    settlement_confirmed = execution_submitted + cfg.execution_delay_ms

    logged: list[TimelineEvent] = []

    def push(at_ms: int, kind: TimelineEventKind, note: str = "") -> None:
        logged.append(TimelineEvent(at_ms, kind, note))

    push(0, TimelineEventKind.ESCROW_PREFETCH, "solver balances cached")
    push(0, TimelineEventKind.ORDER_PLACED)
    push(order_received, TimelineEventKind.ORDER_RECEIVED)
    push(order_received, TimelineEventKind.AUCTION_OPENED)

    guarantee_value: Optional[str] = None
    if model.schedule is not None:
        solvent: list[SolverOperation] = []
        gamma = model.schedule.gamma
        for op in model.candidates:
            needed = required_escrow(op.bid, op.gas_reserved, gamma, model.schedule.gas_price)
            covered = (
                model.escrow_snapshot is None
                or model.escrow_snapshot.get(op.solver_id, ZERO) >= needed
            )
            if covered:
                solvent.append(op)
                push(
                    auction_closed,
                    TimelineEventKind.BID_ADMITTED,
                    f"{op.solver_id} escrow ok (cached)",
                )
            else:
                push(
                    auction_closed,
                    TimelineEventKind.BID_REJECTED,
                    f"{op.solver_id} insufficient escrow (cached)",
                )
        tx = admit_operations(solvent, model.schedule)
        guarantee_value = format_amount(guaranteed_minimum(tx))

    push(auction_closed, TimelineEventKind.AUCTION_CLOSED)
    push(
        auction_closed,
        TimelineEventKind.GUARANTEE_ISSUED,
        f"value {guarantee_value}" if guarantee_value is not None else "",
    )
    push(guarantee_received, TimelineEventKind.GUARANTEE_RECEIVED)
    push(execution_submitted, TimelineEventKind.EXECUTION_SUBMITTED)
    push(settlement_confirmed, TimelineEventKind.SETTLEMENT_CONFIRMED)

    # a stable sort: events at the same time stay in the order they were logged
    events = sorted(logged, key=attrgetter("at_ms"))

    return {
        "model": "timeline",
        "guarantee_issued_at_ms": auction_closed,
        "guarantee_at_ms": guarantee_received,
        "guarantee_value": guarantee_value,
        "chain_quiet_between_order_and_guarantee": (
            chain_quiet_between_order_and_guarantee(events)
        ),
        "events": [
            {"at_ms": event.at_ms, "kind": event.kind.value, "note": event.note}
            for event in events
        ],
    }


def run_simulation(config: SimConfig, jobs: int = 1) -> dict:
    """Dispatch a configuration to its runner, importing ``ofasim.simulation``
    (and so numpy) only for a Monte-Carlo model.

    ``jobs`` is ignored; it stays only while benchmark scripts still pass it.
    """
    model = config.model
    if isinstance(model, SpoofAttack):
        return run_spoof_attack(config)
    if isinstance(model, Timeline):
        return run_timeline(config)
    simulation = importlib.import_module(".simulation", __package__)
    if isinstance(model, IidFailure):
        return simulation.run_iid_failure(config)
    if isinstance(model, NormalValuation):
        return simulation.run_normal_valuation(config)
    if isinstance(model, ThroughputSweep):
        return simulation.run_throughput_sweep(config)
    raise TypeError(f"unknown model type: {type(model).__name__}")
