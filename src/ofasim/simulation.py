"""Monte-Carlo and discrete-event harness for failure-cost auctions.

Runners:
  - ``run_iid_failure``: symmetric game where each executed operation fails
    independently with probability q; reports per-solver, total and
    beneficiary payoff statistics.
  - ``run_normal_valuation``: solvers privately observe X ~ N(v, σ²) at
    execution time and cancel when X falls below their bid; winner payoffs
    use the realized X.
  - ``run_throughput_sweep``: expected failure cost of the median-bid
    operation as the gas budget grows (the array is refilled to capacity at
    each budget).
  - ``run_spoof_attack``: deterministic settlement of a gas-exhaustion
    censorship attempt against the same auction without the attacker.
  - ``run_timeline``: discrete-event simulation of the asynchronous auction
    pipeline (escrow prefetch, order receipt, auction, guarantee issuance,
    on-chain execution), with a structural chain-quiet check between order
    receipt and guarantee issuance.

Determinism:
    All randomness comes from one ``numpy.random.default_rng(seed)`` (PCG64)
    per run. Every trial's draws happen in a single upfront vectorized pass —
    row = trial, column = execution position (descending-bid order); sweep
    rungs draw their blocks in listed order. Accumulation is chunked at a
    fixed chunk size with ordered reduction, so the ``jobs`` parameter changes
    concurrency only, never results: identical (seed, config) gives
    bit-identical reports at any job count.

Settlement reuse:
    Within one trial the only thing that matters is the first position whose
    operation succeeds, so the runners build one transaction, settle each of
    its outcome patterns once through ``settle_patterns`` and reuse the
    payoffs across trials. Realized-valuation payoffs add the winner's drawn X
    on top of the zero-value base settlement. Amounts that do not fit a float
    are rejected with a ``ValueError`` when the tables are built.

Statistics are empirical means with standard errors; comparisons against
closed forms should use 3-standard-error bands.
"""

from __future__ import annotations

import heapq
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

from .auction import (
    AuctionTransaction,
    Behavior,
    GasSchedule,
    SolverOperation,
    admit_operations,
)
from .censorship import CensorshipScenario, censorship_resistance
from .escrow import required_escrow
from .money import ZERO, format_amount
from .settlement import failure_cost, guaranteed_minimum, settle, settle_patterns

_CHUNK = 16384


# ---------------------------------------------------------------------------
# empirical statistics with deterministic chunked accumulation


@dataclass(frozen=True)
class EmpiricalStat:
    """Empirical mean with its standard error."""

    mean: float
    std_error: float
    trials: int

    def as_dict(self) -> dict:
        return {"mean": self.mean, "std_error": self.std_error, "trials": self.trials}


class _Moments:
    """First and second moments per column, merged in fixed chunk order."""

    def __init__(self, width: int) -> None:
        self.count = 0
        self.total = np.zeros(width)
        self.total_sq = np.zeros(width)

    def update(self, block: np.ndarray) -> None:
        if block.ndim == 1:
            block = block[:, None]
        self.count += block.shape[0]
        self.total += block.sum(axis=0)
        self.total_sq += (block * block).sum(axis=0)

    def stat(self, column: int = 0) -> EmpiricalStat:
        mean = self.total[column] / self.count
        var = self.total_sq[column] / self.count - mean * mean
        if self.count > 1:
            var = max(var, 0.0) * self.count / (self.count - 1)
        return EmpiricalStat(
            mean=float(mean),
            std_error=float(math.sqrt(max(var, 0.0) / self.count)),
            trials=self.count,
        )


def _chunk_ranges(trials: int) -> list[tuple[int, int]]:
    return [(start, min(start + _CHUNK, trials)) for start in range(0, trials, _CHUNK)]


def _run_chunked(
    chunk_fn: Callable[[int, int], tuple[np.ndarray, ...]],
    trials: int,
    widths: Sequence[int],
    jobs: int,
) -> list[_Moments]:
    """Accumulate chunk_fn's blocks into moments, in chunk order.

    The reduction order is fixed by the chunk list, so any jobs count gives
    identical floating-point results.
    """
    ranges = _chunk_ranges(trials)
    moments = [_Moments(width) for width in widths]
    if jobs <= 1:
        produced = (chunk_fn(start, end) for start, end in ranges)
        for blocks in produced:
            for acc, block in zip(moments, blocks):
                acc.update(block)
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            for blocks in pool.map(lambda r: chunk_fn(*r), ranges):
                for acc, block in zip(moments, blocks):
                    acc.update(block)
    return moments


# ---------------------------------------------------------------------------
# models and configuration


def _float(amount: Union[Fraction, float], what: str) -> float:
    """``amount`` as a float; ``ValueError`` if it lies beyond the float range."""
    try:
        return float(amount)
    except OverflowError as exc:
        raise ValueError(f"{what} is too large for a float") from exc


@dataclass(frozen=True)
class IidFailure:
    """Common-value game with an exogenous iid failure probability.

    Attributes:
        n: Number of solvers.
        q: Failure probability of each executed operation.
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
        if self.n < 1:
            raise ValueError("n must be positive")
        if not 0 <= self.q <= 1:
            raise ValueError("q must lie in [0, 1]")
        bids = tuple(b if isinstance(b, Fraction) else Fraction(b) for b in self.bids)
        object.__setattr__(self, "bids", bids)
        object.__setattr__(
            self, "v", self.v if isinstance(self.v, Fraction) else Fraction(self.v)
        )
        if len(bids) != self.n:
            raise ValueError("bids must have exactly n entries")


@dataclass(frozen=True)
class NormalValuation:
    """Game with normally drifting private valuations.

    Attributes:
        n: Number of solvers.
        v: Mean valuation at execution time (finite; converted to a float).
        sigma: Standard deviation of the valuation (finite, > 0).
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
        if self.n < 1:
            raise ValueError("n must be positive")
        object.__setattr__(self, "v", _float(self.v, "v"))
        if not (math.isfinite(self.v) and math.isfinite(self.sigma)):
            raise ValueError("v and sigma must be finite")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        bids = tuple(b if isinstance(b, Fraction) else Fraction(b) for b in self.bids)
        object.__setattr__(self, "bids", bids)
        if len(bids) != self.n:
            raise ValueError("bids must have exactly n entries")


@dataclass(frozen=True)
class ThroughputSweep:
    """Failure-cost-vs-budget experiment template.

    At each budget the array is refilled to capacity with operations of the
    template gas, bids spread linearly from bid_high down to bid_low. The op
    at the median bid rank ⌈N/2⌉ is the measured one: it always executes and
    reverts, every higher-bidding op reverts too, and the lower-bidding ops
    fail independently with probability q — so the measured expectation
    isolates how the penalty itself scales with the budget.
    """

    gammas: tuple[int, ...]
    gas_per_op: int = 100_000
    bid_high: Fraction = Fraction(100)
    bid_low: Fraction = Fraction(50)
    q: float = 0.5

    def __post_init__(self) -> None:
        gammas = tuple(int(g) for g in self.gammas)
        object.__setattr__(self, "gammas", gammas)
        if not gammas:
            raise ValueError("gammas must be non-empty")
        if not isinstance(self.gas_per_op, int) or self.gas_per_op <= 0:
            raise ValueError("gas_per_op must be a positive integer")
        if any(g < self.gas_per_op for g in gammas):
            raise ValueError("every gamma must fit at least one operation")
        if not 0 < self.q < 1:
            raise ValueError("q must lie strictly in (0, 1)")
        for name in ("bid_high", "bid_low"):
            value = getattr(self, name)
            if not isinstance(value, Fraction):
                object.__setattr__(self, name, Fraction(value))
        if self.bid_low > self.bid_high or self.bid_low < 0:
            raise ValueError("need 0 <= bid_low <= bid_high")


@dataclass(frozen=True)
class SpoofAttack:
    """Gas-exhaustion censorship attempt against a rival field.

    Attributes:
        scenario: Rivals, budget, gas price and attacker value.
        bid_margin: How far above the best rival bid the attacker bids. A
            zero or negative margin models a failed outbid attempt (the
            attacker then sorts behind the best rival).
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
        if not isinstance(self.bid_margin, Fraction):
            object.__setattr__(self, "bid_margin", Fraction(self.bid_margin))
        if self.attacker_gas is not None and not (
            0 < self.attacker_gas <= self.scenario.gamma
        ):
            raise ValueError("attacker_gas must lie in (0, gamma]")


@dataclass(frozen=True)
class TimelineConfig:
    """Latency parameters of the asynchronous auction pipeline (ms)."""

    user_latency_ms: int = 50
    auction_duration_ms: int = 300
    execution_delay_ms: int = 50

    def __post_init__(self) -> None:
        for name in ("user_latency_ms", "auction_duration_ms", "execution_delay_ms"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 0:
                raise ValueError(f"{name} must be a non-negative integer")


@dataclass(frozen=True)
class Timeline:
    """Timeline model: latencies plus an optional auction to run through it."""

    config: TimelineConfig
    schedule: Optional[GasSchedule] = None
    candidates: tuple[SolverOperation, ...] = ()
    escrow_snapshot: Optional[Mapping[str, Fraction]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "candidates", tuple(self.candidates))


Model = Union[IidFailure, NormalValuation, ThroughputSweep, SpoofAttack, Timeline]


@dataclass(frozen=True)
class SimConfig:
    """A reproducible simulation run: trial count, RNG seed, and model."""

    trials: int
    seed: int
    model: Model

    def __post_init__(self) -> None:
        if not isinstance(self.trials, int) or self.trials <= 0:
            raise ValueError("trials must be a positive integer")
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")


# ---------------------------------------------------------------------------
# shared settlement-pattern machinery


def _game_transaction(
    model: Union[IidFailure, NormalValuation], value: Optional[Fraction]
) -> AuctionTransaction:
    """The model's array, each op at ``gas_per_op``, each solver valuing ``value``."""
    width = max(3, len(str(model.n)))
    ops = [
        SolverOperation(
            solver_id=f"s{index:0{width}d}", bid=bid, gas_reserved=model.gas_per_op
        )
        for index, bid in enumerate(model.bids)
    ]
    schedule = GasSchedule(
        tx_gas_limit=model.n * model.gas_per_op,
        user_gas_consumed=0,
        gas_price=model.gas_price,
    )
    values = None if value is None else {op.solver_id: value for op in ops}
    return admit_operations(ops, schedule, values)


def _pattern_tables(tx: AuctionTransaction) -> tuple[np.ndarray, np.ndarray]:
    """Pattern × position payoff matrix and payout vector, as floats.

    Row k is ``settle_patterns(tx)[k]``: op k is the first to succeed.
    """
    rows = settle_patterns(tx)
    payoffs = np.array(
        [
            [_float(row.solver_payoffs[op.solver_id], "payoff") for op in tx.solver_ops]
            for row in rows
        ]
    )
    payouts = np.array([_float(row.beneficiary_payout, "payout") for row in rows])
    return payoffs, payouts


def _first_true_positions(matrix: np.ndarray) -> np.ndarray:
    """Index of the first True per row, or the row width if none."""
    n = matrix.shape[1]
    any_true = matrix.any(axis=1)
    positions = matrix.argmax(axis=1)
    positions[~any_true] = n
    return positions


# ---------------------------------------------------------------------------
# runners


def run_iid_failure(config: SimConfig, jobs: int = 1) -> dict:
    """Monte-Carlo of the iid-failure game.

    Each trial draws one uniform per execution position; position j succeeds
    when its draw is ≥ q. Reports per-solver payoff statistics (keyed by
    solver id in execution order), the total payoff across solvers, the
    beneficiary payout, and the success probability.
    """
    model = config.model
    if not isinstance(model, IidFailure):
        raise TypeError("run_iid_failure requires an IidFailure model")
    tx = _game_transaction(model, model.v)
    ops, n = tx.solver_ops, model.n
    payoff_table, beneficiary_table = _pattern_tables(tx)

    rng = np.random.default_rng(config.seed)
    draws = rng.random((config.trials, n))
    positions = _first_true_positions(draws >= model.q)

    def produce(start: int, end: int) -> tuple[np.ndarray, ...]:
        pos = positions[start:end]
        per_solver = payoff_table[pos]
        total = per_solver.sum(axis=1)
        payout = beneficiary_table[pos]
        succeeded = (pos < n).astype(float)
        return per_solver, total, payout, succeeded

    per_solver_m, total_m, payout_m, success_m = _run_chunked(
        produce, config.trials, [n, 1, 1, 1], jobs
    )
    return {
        "model": "iid_failure",
        "trials": config.trials,
        "seed": config.seed,
        "per_solver": {
            op.solver_id: per_solver_m.stat(index).as_dict()
            for index, op in enumerate(ops)
        },
        "total_payoff": total_m.stat().as_dict(),
        "beneficiary": payout_m.stat().as_dict(),
        "success_probability": success_m.stat().as_dict(),
    }


def run_normal_valuation(config: SimConfig, jobs: int = 1) -> dict:
    """Monte-Carlo of the valuation-drift game.

    Each trial draws one valuation X per execution position; position j
    succeeds (does not cancel) when X exceeds its bid. The winner's payoff
    uses its realized X. Besides payoff statistics, the report carries the
    executed-operation count and the per-execution total payoff rescaled by
    n — a statistic whose expectation matches the closed-form
    ``discrete_time_utility`` exactly when sigma == 1, since that closed
    form's slippage term σ·f_X(b) equals the per-execution value φ(z) only
    at unit sigma.
    """
    model = config.model
    if not isinstance(model, NormalValuation):
        raise TypeError("run_normal_valuation requires a NormalValuation model")
    tx = _game_transaction(model, None)
    ops, n = tx.solver_ops, model.n
    payoff_table, beneficiary_table = _pattern_tables(tx)
    bid_row = np.array([_float(op.bid, "bid") for op in ops])

    rng = np.random.default_rng(config.seed)
    valuations = model.v + model.sigma * rng.standard_normal((config.trials, n))
    positions = _first_true_positions(valuations > bid_row)
    winner_rows = np.nonzero(positions < n)[0]
    realized = np.zeros(config.trials)
    realized[winner_rows] = valuations[winner_rows, positions[winner_rows]]

    def produce(start: int, end: int) -> tuple[np.ndarray, ...]:
        pos = positions[start:end]
        per_solver = payoff_table[pos].copy()
        rows = np.nonzero(pos < n)[0]
        per_solver[rows, pos[rows]] += realized[start:end][rows]
        total = per_solver.sum(axis=1)
        payout = beneficiary_table[pos]
        executed = np.minimum(pos + 1, n).astype(float)
        return per_solver, total, payout, executed, total * executed

    per_solver_m, total_m, payout_m, executed_m, cross_m = _run_chunked(
        produce, config.trials, [n, 1, 1, 1, 1], jobs
    )
    scaled = _ratio_statistic(total_m, executed_m, cross_m, scale=float(n))
    return {
        "model": "normal_valuation",
        "trials": config.trials,
        "seed": config.seed,
        "per_solver": {
            op.solver_id: per_solver_m.stat(index).as_dict()
            for index, op in enumerate(ops)
        },
        "total_payoff": total_m.stat().as_dict(),
        "beneficiary": payout_m.stat().as_dict(),
        "executed_ops": executed_m.stat().as_dict(),
        "scaled_per_execution_payoff": scaled.as_dict(),
    }


def _ratio_statistic(
    numerator: _Moments, denominator: _Moments, cross: _Moments, scale: float
) -> EmpiricalStat:
    """Delta-method statistic scale · mean(num) / mean(den)."""
    count = numerator.count
    num_mean = numerator.total[0] / count
    den_mean = denominator.total[0] / count
    ratio = scale * num_mean / den_mean
    num_var = numerator.total_sq[0] / count - num_mean**2
    den_var = denominator.total_sq[0] / count - den_mean**2
    cov = cross.total[0] / count - num_mean * den_mean
    grad_num = scale / den_mean
    grad_den = -scale * num_mean / den_mean**2
    var = (
        grad_num**2 * num_var
        + grad_den**2 * den_var
        + 2.0 * grad_num * grad_den * cov
    )
    return EmpiricalStat(
        mean=float(ratio),
        std_error=float(math.sqrt(max(var, 0.0) / count)),
        trials=count,
    )


def median_failure_costs(
    model: ThroughputSweep, gamma: int
) -> tuple[list[Fraction], int, list[Fraction]]:
    """One rung of a throughput sweep, in exact amounts.

    Returns the bids of the array refilled at ``gamma`` (execution order),
    the position of the measured rank-⌈N/2⌉ op, and that op's failure cost
    when the j-th op below it is the first to succeed; the last entry is the
    cost when none does.
    """
    count = gamma // model.gas_per_op
    if count > 1:
        step = (model.bid_high - model.bid_low) / (count - 1)
        bids = [model.bid_high - step * i for i in range(count)]
    else:
        bids = [model.bid_high]
    median_index = math.ceil(count / 2) - 1
    costs = [
        failure_cost(bids[median_index], winner_bid, model.gas_per_op, gamma)
        for winner_bid in bids[median_index + 1 :] + [None]
    ]
    return bids, median_index, costs


def run_throughput_sweep(config: SimConfig, jobs: int = 1) -> dict:
    """Expected failure cost of the median-bid operation per gas budget.

    For each budget the array is refilled to capacity (budget // gas_per_op
    operations), bids spread from bid_high down to bid_low. Rows report the
    mean failure cost of the rank-⌈N/2⌉ op and the probability that any
    operation succeeds; the cost column is non-increasing in the budget.
    """
    model = config.model
    if not isinstance(model, ThroughputSweep):
        raise TypeError("run_throughput_sweep requires a ThroughputSweep model")
    rng = np.random.default_rng(config.seed)
    rows = []
    for gamma in model.gammas:
        bids, median_index, costs = median_failure_costs(model, gamma)
        cost_table = np.array([_float(cost, "failure cost") for cost in costs])
        below = len(costs) - 1
        if below:
            draws = rng.random((config.trials, below))
            positions = _first_true_positions(draws >= model.q)
        else:
            positions = np.full(config.trials, 0)

        def produce(start: int, end: int) -> tuple[np.ndarray, ...]:
            pos = positions[start:end]
            cost = cost_table[pos]
            succeeded = (pos < below).astype(float)
            return cost, succeeded

        cost_m, success_m = _run_chunked(produce, config.trials, [1, 1], jobs)
        rows.append(
            {
                "gamma": gamma,
                "ops": len(bids),
                "median_bid": format_amount(bids[median_index]),
                "mean_failure_cost": cost_m.stat().as_dict(),
                "success_probability": success_m.stat().as_dict(),
            }
        )
    return {
        "model": "throughput_sweep",
        "trials": config.trials,
        "seed": config.seed,
        "rows": rows,
    }


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
    if not scenario.rival_ops:
        raise ValueError("spoof attack needs at least one rival")
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
    min_gas = min(gas for _, gas in scenario.rival_ops)
    attacker_gas = (
        model.attacker_gas if model.attacker_gas is not None else scenario.gamma
    )
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
        "attacker_failure_cost": format_amount(
            attack.failure_costs.get(attacker.solver_id, ZERO)
        ),
        "attacker_gas_fee": format_amount(
            attack.gas_charges.get(attacker.solver_id, ZERO)
        ),
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

    queue: list[tuple[int, int, TimelineEvent]] = []
    seq = 0

    def push(at_ms: int, kind: TimelineEventKind, note: str = "") -> None:
        nonlocal seq
        heapq.heappush(queue, (at_ms, seq, TimelineEvent(at_ms, kind, note)))
        seq += 1

    push(0, TimelineEventKind.ESCROW_PREFETCH, "solver balances cached")
    push(0, TimelineEventKind.ORDER_PLACED)
    push(order_received, TimelineEventKind.ORDER_RECEIVED)
    push(order_received, TimelineEventKind.AUCTION_OPENED)

    solvent: list[SolverOperation] = []
    if model.schedule is not None:
        gamma = model.schedule.solver_gas_budget()
        for op in model.candidates:
            needed = required_escrow(
                op.bid, op.gas_reserved, gamma, model.schedule.gas_price
            )
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

    guarantee_value: Optional[str] = None
    if model.schedule is not None:
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

    events: list[TimelineEvent] = []
    while queue:
        _, _, event = heapq.heappop(queue)
        events.append(event)

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
    """Dispatch a configuration to its runner."""
    model = config.model
    if isinstance(model, IidFailure):
        return run_iid_failure(config, jobs)
    if isinstance(model, NormalValuation):
        return run_normal_valuation(config, jobs)
    if isinstance(model, ThroughputSweep):
        return run_throughput_sweep(config, jobs)
    if isinstance(model, SpoofAttack):
        return run_spoof_attack(config)
    if isinstance(model, Timeline):
        return run_timeline(config)
    raise TypeError(f"unknown model type: {type(model).__name__}")
