"""Monte-Carlo runners of the iid-failure, valuation-drift and throughput models.

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
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional, Union

import numpy as np

from .auction import AuctionTransaction, GasSchedule, SolverOperation, admit_operations
from .equilibrium import normal_cdf, normal_sf
from .money import float_range, format_amount
from .scenarios import (  # noqa: F401  (the models and exact runners, re-exported)
    CHAIN_ACCESS_KINDS, MAX_RUNG_OPS, IidFailure, Model, NormalValuation, SimConfig, SpoofAttack,
    ThroughputSweep, Timeline, TimelineConfig, TimelineEvent, TimelineEventKind, _rung,
    chain_quiet_between_order_and_guarantee, median_failure_costs, run_simulation,
    run_spoof_attack, run_timeline,
)
from .settlement import _pattern_terms

#: Most proposals the valuation sampler draws at once, so memory stays flat.
_BATCH = 16384


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
    with float_range("payoff"):
        for k in range(n + 1):
            reverted, winner, payout = _pattern_terms(tx, k)
            row = [payoff / payoff_den for _, _, payoff in reverted]
            if winner is not None:
                _, payoff, winner_den = winner
                row.append(payoff / winner_den)
                row += [0.0] * (n - k - 1)  # skipped ops
            rows.append(row)
            payouts.append(payout)
    with float_range("payout"):
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
    with float_range("bid"):
        bid_row = np.array([float(op.bid) for op in ops])
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
        with float_range("failure cost"):  # int / int rounds as float() does
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
