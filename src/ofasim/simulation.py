"""Monte-Carlo and discrete-event harness for failure-cost auctions.

Each runner (``run_iid_failure``, ``run_normal_valuation``,
``run_throughput_sweep``, ``run_spoof_attack``, ``run_timeline``) takes a
``SimConfig``, and ``run_simulation`` dispatches on its model.

Determinism and reduction: a trial's payoffs depend only on its outcome
pattern (the first execution position whose operation succeeds) and, in the
valuation model, on the winner's X. All randomness comes from one
``numpy.random.default_rng(seed)`` (PCG64) per run: the pattern counts as one
multinomial of the patterns' exact law (one per sweep rung, in listed order),
then, in the valuation model, each drawn pattern's winners in pattern order,
in bounded batches. Time is O(n), plus O(trials) in the valuation model, and
memory does not grow with the trial count. Identical (seed, config) gives
bit-identical reports; the stream differs from that of earlier versions, which
drew every trial × position cell, but the estimators' distribution is the
same. Pattern tables are divided straight from the settlement kernel's integer
numerators, so every float equals ``float()`` of its exact amount; a statistic
or amount that does not fit a float raises ``ValueError``.

Statistics are empirical means with standard errors; comparisons against
closed forms should use 3-standard-error bands.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from operator import attrgetter
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence, Union

import numpy as np

from .auction import (
    AuctionTransaction,
    Behavior,
    GasSchedule,
    SolverOperation,
    admit_operations,
)
from .censorship import CensorshipScenario, censorship_resistance
from .equilibrium import normal_cdf, normal_sf
from .escrow import required_escrow
from .money import ZERO, format_amount, require_exact, require_int, require_real
from .settlement import _pattern_terms, guaranteed_minimum, settle

#: Most proposals the valuation sampler draws at once, so memory stays flat.
_BATCH = 16384

#: Most operations one throughput rung may hold (each is a bid and a cost row).
MAX_RUNG_OPS = 1_000_000


# ---------------------------------------------------------------------------
# empirical statistics from outcome-pattern sums


class _PatternSums(NamedTuple):
    """Trials per outcome pattern and, for valuation draws, each pattern's
    anchor and the sums of R = X − anchor and R² over its winners' drawn X.
    """

    counts: np.ndarray
    anchors: np.ndarray
    sums: np.ndarray
    squares: np.ndarray


def _iid_law(q: float, width: int) -> np.ndarray:
    """Outcome-pattern law when each of ``width`` positions fails with
    probability q: p_k = q^k·(1 − q) for k < width, p_width = q^width."""
    reach = q ** np.arange(width + 1.0)
    law = reach * (1.0 - q)
    law[-1] = reach[-1]
    return law


@np.errstate(over="ignore")  # b − v beyond the float range: z = ±inf
def _normal_law(v: float, sigma: float, bid_row: np.ndarray) -> np.ndarray:
    """Outcome-pattern law when position j fails (cancels) with probability
    Φ(z_j), z_j = (b_j − v)/σ: p_k = ∏_{j<k} Φ(z_j)·(1 − Φ(z_k)), and p_n is
    the product of every Φ(z_j). 1 − Φ is ``normal_sf``, not a subtraction."""
    z = (bid_row - v) / sigma
    fail = [normal_cdf(zj) for zj in z]
    succeed = [normal_sf(zj) for zj in z]
    reach = np.cumprod([1.0, *fail])
    return np.append(reach[:-1] * succeed, reach[-1])


def _truncated_normal(
    rng: np.random.Generator, count: int, v: float, sigma: float, bid: float
) -> Iterator[np.ndarray]:
    """Yield ``count`` draws of X ~ N(v, σ²) conditioned on X > ``bid``, in
    batches of at most ``_BATCH``.

    With z = (bid − v)/σ ≤ 0, plain rejection of standard normals T ≤ z
    (acceptance ≥ 1/2); above, Robert's (1995) sampler: T = z + E/α with
    E ~ Exp(1) and α = (z + √(z² + 4))/2, kept with probability
    exp(−(T − α)²/2). X = v + σ·T (bid + σ·(T − z) in the tail, which keeps
    the digits of a small excess). An X that rounding left at or below
    ``bid`` is raised to the next float above it, so every draw is > ``bid``
    and a σ below the float spacing of ``bid`` cannot stall the loop.
    """
    z = (bid - v) / sigma
    floor = np.nextafter(bid, np.inf)
    if z <= 0:
        accept = normal_sf(z)
    else:
        alpha = (z + math.sqrt(z * z + 4.0)) / 2.0
        accept = 0.75  # Robert's acceptance is 0.76 at z = 0 and rises with z
    while count:
        size = min(int(count / accept) + 16, _BATCH)
        if z <= 0:
            t = rng.standard_normal(size)
            x = v + sigma * t[t > z]
        else:
            excess = rng.standard_exponential(size) / alpha
            kept = 2.0 * rng.standard_exponential(size) > (excess + (z - alpha)) ** 2
            x = bid + sigma * excess[kept]
        x = np.maximum(x[:count], floor)
        count -= len(x)
        yield x


@np.errstate(over="ignore", invalid="ignore")  # overflow fails in _statistics
def _pattern_sums(
    rng: np.random.Generator,
    trials: int,
    law: np.ndarray,
    valuation: Optional[tuple[float, float, np.ndarray]] = None,
) -> _PatternSums:
    """Draw the trials' outcome patterns (k < n: position k is the first
    success; k = n: none is) as one multinomial of ``law`` and, given
    ``valuation = (v, σ, bid_row)``, each pattern k's winners in pattern
    order: X ~ N(v, σ²) conditioned on X > bid_row[k]. They are summed as
    R = X − max(v, bid_row[k]): the winners' X lie within a few σ of that
    anchor, so R² stays in the float range wherever σ² does.
    """
    counts = rng.multinomial(trials, law)
    width = len(law) - 1
    anchors, sums, squares = (np.zeros(width + 1) for _ in range(3))
    if valuation is not None:
        v, sigma, bid_row = valuation
        anchors[:width] = np.maximum(bid_row, v)
        for k in np.flatnonzero(counts[:width]):
            for x in _truncated_normal(rng, int(counts[k]), v, sigma, bid_row[k]):
                residual = x - anchors[k]
                sums[k] += residual.sum()
                squares[k] += residual @ residual
    return _PatternSums(counts, anchors, sums, squares)


@np.errstate(over="ignore", invalid="ignore")  # checked once, at the end
def _statistics(
    drawn: _PatternSums,
    values: np.ndarray,
    weights: Optional[np.ndarray] = None,
    ratio: Optional[tuple[int, int, float]] = None,
) -> list[dict]:
    """Report statistics of per-trial columns, from the per-pattern sums.

    A trial of pattern k has column j equal to values[k, j], plus its
    winner's X where weights[k, j] is 1. Each column is shifted by its value
    on a trial of the last pattern drawn, so a constant column has a zero
    standard error exactly. ``ratio = (i, j, scale)`` appends the
    delta-method statistic scale · mean_i / mean_j. ``ValueError`` if a
    statistic does not fit a float.
    """
    trials = int(drawn.counts.sum())
    if weights is not None:
        values = values + weights * drawn.anchors[:, None]
    shift = values[np.flatnonzero(drawn.counts)[-1]]
    dev = values - shift
    first = drawn.counts @ dev
    second = dev.T @ (drawn.counts[:, None] * dev)
    if weights is not None:
        first = first + drawn.sums @ weights
        cross = dev.T @ (drawn.sums[:, None] * weights)
        squares = weights.T @ (drawn.squares[:, None] * weights)
        second = second + cross + cross.T + squares
    means = shift + first / trials
    comoments = second - np.outer(first, first) / trials
    variances = np.maximum(np.diag(comoments), 0.0) / max(trials - 1, 1)
    if ratio is not None:
        i, j, scale = ratio
        grad = np.array([scale / means[j], -scale * means[i] / means[j] ** 2])
        spread = grad @ comoments[np.ix_([i, j], [i, j])] @ grad / trials
        means = np.append(means, scale * means[i] / means[j])
        variances = np.append(variances, max(spread, 0.0))
    errors = np.sqrt(variances / trials)
    if not (np.isfinite(means).all() and np.isfinite(errors).all()):
        raise ValueError("a Monte-Carlo statistic does not fit a float")
    return [
        {"mean": float(mean), "std_error": float(error), "trials": trials}
        for mean, error in zip(means, errors)
    ]


# ---------------------------------------------------------------------------
# models and configuration


@contextmanager
def _float_range(what: str) -> Iterator[None]:
    """Turn an ``OverflowError`` of a float conversion into a ``ValueError``."""
    try:
        yield
    except OverflowError as exc:
        raise ValueError(f"{what} is too large for a float") from exc


def _float(amount: Union[Fraction, float], what: str) -> float:
    """``amount`` as a float; ``ValueError`` if it lies beyond the float range."""
    with _float_range(what):
        return float(amount)


def _check_game(model: Union[IidFailure, NormalValuation]) -> None:
    """Check the fields the two bidding games share; keep ``bids`` as a tuple."""
    require_int(model.n, "n", 1)
    object.__setattr__(model, "bids", tuple(model.bids))
    for bid in model.bids:
        require_exact(bid, "bid")
    if len(model.bids) != model.n:
        raise ValueError("bids must have exactly n entries")
    require_int(model.gas_per_op, "gas_per_op", 1)
    require_exact(model.gas_price, "gas_price")


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
        require_real(self.q, "q")
        if not 0 <= self.q <= 1:
            raise ValueError("q must lie in [0, 1]")
        require_exact(self.v, "v")
        _check_game(self)


@dataclass(frozen=True)
class NormalValuation:
    """Game with normally drifting private valuations.

    Attributes:
        n: Number of solvers.
        v: Mean valuation at execution time (finite; converted to a float).
        sigma: Standard deviation of the valuation (finite, and at least
            2**-40 · max(|v|, bids), so floats resolve the valuation near a bid).
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
        require_real(self.v, "v")
        require_real(self.sigma, "sigma")
        object.__setattr__(self, "v", _float(self.v, "v"))
        # exact for an int or Fraction sigma (no float conversion), and false for NaN
        limit = sys.float_info.max
        if not (abs(self.v) <= limit and abs(self.sigma) <= limit):
            raise ValueError("v and sigma must be finite")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
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
    hold from one to ``MAX_RUNG_OPS`` operations of ``gas_per_op``.
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
        require_real(self.q, "q")
        if not 0 < self.q < 1:
            raise ValueError("q must lie strictly in (0, 1)")
        require_exact(self.bid_high, "bid_high")
        require_exact(self.bid_low, "bid_low")
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
        require_exact(self.bid_margin, "bid_margin")
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
            require_exact(amount, "escrow snapshot amount")
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


def _pattern_columns(tx: AuctionTransaction) -> np.ndarray:
    """Per-pattern payoff of each op (execution order), their total, and the
    beneficiary payout, as floats.

    Row k holds the amounts of ``settle_patterns(tx)[k]`` (op k is the first
    to succeed), divided straight from the kernel's integer numerators.
    ``int / int`` rounds correctly, so each float equals ``float()`` of the
    exact amount.
    """
    n = len(tx.solver_ops)
    den = tx.bid_scale * tx.schedule.gamma
    payoff_den = den * tx.schedule.gas_price.denominator
    rows, payouts = [], []
    with _float_range("payoff"):
        for k in range(n + 1):
            reverted, winner, payout = _pattern_terms(tx, k)
            row = [payoff / payoff_den for _, _, payoff in reverted]
            if winner is not None:
                _, payoff, winner_den = winner
                row.append(payoff / winner_den)
                row += [0.0] * (n - k - 1)  # skipped ops
            rows.append(row)
            payouts.append(payout)
    with _float_range("payout"):
        payouts = [payout / den for payout in payouts]
    payoffs = np.array(rows)
    return np.column_stack([payoffs, payoffs.sum(axis=1), payouts])


# ---------------------------------------------------------------------------
# runners


def run_iid_failure(config: SimConfig) -> dict:
    """Monte-Carlo of the iid-failure game.

    Each execution position fails independently with probability q; the run
    draws its per-pattern counts (the first success's position, or none) as
    one multinomial of the patterns' exact law. Reports per-solver payoff
    statistics (keyed by solver id in execution order), the total payoff
    across solvers, the beneficiary payout, and the success probability.
    """
    model = config.model
    if not isinstance(model, IidFailure):
        raise TypeError("run_iid_failure requires an IidFailure model")
    tx = _game_transaction(model, model.v)
    ops, n = tx.solver_ops, model.n
    columns = np.column_stack([_pattern_columns(tx), np.arange(n + 1) < n])
    rng = np.random.default_rng(config.seed)
    drawn = _pattern_sums(rng, config.trials, _iid_law(model.q, n))
    stats = _statistics(drawn, columns)
    return {
        "model": "iid_failure",
        "trials": config.trials,
        "seed": config.seed,
        "per_solver": {op.solver_id: stat for op, stat in zip(ops, stats)},
        "total_payoff": stats[n],
        "beneficiary": stats[n + 1],
        "success_probability": stats[n + 2],
    }


def run_normal_valuation(config: SimConfig) -> dict:
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
    bid_row = np.array([_float(op.bid, "bid") for op in ops])
    executed = np.minimum(np.arange(1, n + 2), n)
    columns = np.column_stack([_pattern_columns(tx), executed])
    # the winner's realized X adds to its own column and to the total
    wins = np.eye(n + 1, n)
    weights = np.column_stack([wins, wins.sum(axis=1), np.zeros((n + 1, 2))])
    rng = np.random.default_rng(config.seed)
    law = _normal_law(model.v, model.sigma, bid_row)
    drawn = _pattern_sums(rng, config.trials, law, (model.v, model.sigma, bid_row))
    stats = _statistics(drawn, columns, weights, ratio=(n, n + 2, float(n)))
    return {
        "model": "normal_valuation",
        "trials": config.trials,
        "seed": config.seed,
        "per_solver": {op.solver_id: stat for op, stat in zip(ops, stats)},
        "total_payoff": stats[n],
        "beneficiary": stats[n + 1],
        "executed_ops": stats[n + 2],
        "scaled_per_execution_payoff": stats[n + 3],
    }


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


def run_throughput_sweep(config: SimConfig) -> dict:
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
        bids, bid_den, median, costs, cost_den = _rung(model, gamma)
        with _float_range("failure cost"):  # int / int rounds as float() does
            cost_table = np.array([cost / cost_den for cost in costs])
        below = len(costs) - 1
        drawn = _pattern_sums(rng, config.trials, _iid_law(model.q, below))
        cost, success = _statistics(
            drawn, np.column_stack([cost_table, np.arange(below + 1) < below])
        )
        rows.append(
            {
                "gamma": gamma,
                "ops": len(bids),
                "median_bid": format_amount(Fraction(bids[median], bid_den)),
                "mean_failure_cost": cost,
                "success_probability": success,
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
    """Dispatch a configuration to its runner.

    ``jobs`` is ignored; it stays only while benchmark scripts still pass it.
    """
    model = config.model
    if isinstance(model, IidFailure):
        return run_iid_failure(config)
    if isinstance(model, NormalValuation):
        return run_normal_valuation(config)
    if isinstance(model, ThroughputSweep):
        return run_throughput_sweep(config)
    if isinstance(model, SpoofAttack):
        return run_spoof_attack(config)
    if isinstance(model, Timeline):
        return run_timeline(config)
    raise TypeError(f"unknown model type: {type(model).__name__}")
