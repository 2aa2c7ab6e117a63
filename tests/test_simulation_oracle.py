"""The Monte-Carlo runners against a per-trial reference reduction, and
the outcome-pattern law and winner sampler they draw from.

The reference replays the run's stream: one ``multinomial`` of the
library's pattern law per run (per rung in a throughput sweep), then the
winner sampler for each drawn pattern in order. It expands the counts and
draws to per-trial columns, looks each trial's payoffs up in the pattern
table, adds the winner's X, and reduces the columns with ``np.mean`` and
``np.std(ddof=1) / sqrt(N)``, plus the delta-method ratio. The runners
reduce per-pattern sums instead, so the floats may differ only by
rounding, the success probabilities not at all. The law and the sampler are
checked on their own against exact products, ``math.erfc``, a chi-square
test and ``scipy.stats.truncnorm``.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats as scipy_stats

from ofasim import simulation
from ofasim.auction import GasSchedule, SolverOperation, admit_operations
from ofasim.money import format_amount
from ofasim.settlement import failure_cost, settle_patterns
from ofasim.simulation import (
    IidFailure,
    NormalValuation,
    SimConfig,
    ThroughputSweep,
    median_failure_costs,
    run_simulation,
)

BATCH = simulation._BATCH
TRIALS = (1, 2, BATCH - 1, BATCH, BATCH + 1, 2 * BATCH + 5)
REL = 1e-9


def game_tables(model) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
    """Solver ids and bids in execution order, pattern × op payoffs, payouts."""
    width = max(3, len(str(model.n)))
    ops = [
        SolverOperation(f"s{i:0{width}d}", bid, model.gas_per_op)
        for i, bid in enumerate(model.bids)
    ]
    schedule = GasSchedule(model.n * model.gas_per_op, 0, model.gas_price)
    values = None
    if isinstance(model, IidFailure):
        values = {op.solver_id: model.v for op in ops}
    tx = admit_operations(ops, schedule, values)
    ids = [op.solver_id for op in tx.solver_ops]
    bid_row = np.array([float(op.bid) for op in tx.solver_ops])
    rows = settle_patterns(tx)
    payoffs = np.array([[float(r.solver_payoffs[sid]) for sid in ids] for r in rows])
    payouts = np.array([float(row.beneficiary_payout) for row in rows])
    return ids, bid_row, payoffs, payouts


def stat(samples: np.ndarray) -> dict:
    count = len(samples)
    error = np.std(samples, ddof=1) / math.sqrt(count) if count > 1 else 0.0
    return {"mean": float(np.mean(samples)), "std_error": float(error), "trials": count}


def ratio_stat(num: np.ndarray, den: np.ndarray, scale: float) -> dict:
    count = len(num)
    num_mean, den_mean = np.mean(num), np.mean(den)
    cov = np.mean((num - num_mean) * (den - den_mean))
    grad_num = scale / den_mean
    grad_den = -scale * num_mean / den_mean**2
    var = (
        grad_num**2 * np.var(num)
        + grad_den**2 * np.var(den)
        + 2.0 * grad_num * grad_den * cov
    )
    return {
        "mean": float(scale * num_mean / den_mean),
        "std_error": float(math.sqrt(max(var, 0.0) / count)),
        "trials": count,
    }


def pattern_positions(counts: np.ndarray) -> np.ndarray:
    """Each trial's outcome pattern, the trials grouped by pattern."""
    return np.repeat(np.arange(len(counts)), counts)


def reference_iid(config: SimConfig) -> dict:
    model, trials = config.model, config.trials
    ids, _, payoffs, payouts = game_tables(model)
    rng = np.random.default_rng(config.seed)
    law = simulation._iid_law(model.q, model.n)
    positions = pattern_positions(rng.multinomial(trials, law))
    per_solver = payoffs[positions]
    return {
        "model": "iid_failure",
        "trials": trials,
        "seed": config.seed,
        "per_solver": {sid: stat(per_solver[:, j]) for j, sid in enumerate(ids)},
        "total_payoff": stat(per_solver.sum(axis=1)),
        "beneficiary": stat(payouts[positions]),
        "success_probability": stat((positions < model.n).astype(float)),
    }


def winner_draws(rng, counts, model, bid_row) -> np.ndarray:
    """The winners' X in trial order, pattern by pattern, all batches joined."""
    draws = [
        x
        for k in np.flatnonzero(counts[:-1])
        for x in simulation._truncated_normal(
            rng, int(counts[k]), model.v, model.sigma, bid_row[k]
        )
    ]
    return np.concatenate(draws) if draws else np.zeros(0)


def reference_normal(config: SimConfig) -> dict:
    model, trials, n = config.model, config.trials, config.model.n
    ids, bid_row, payoffs, payouts = game_tables(model)
    rng = np.random.default_rng(config.seed)
    counts = rng.multinomial(trials, simulation._normal_law(model.v, model.sigma, bid_row))
    positions = pattern_positions(counts)
    per_solver = payoffs[positions]
    rows = np.flatnonzero(positions < n)
    per_solver[rows, positions[rows]] += winner_draws(rng, counts, model, bid_row)
    total = per_solver.sum(axis=1)
    executed = np.minimum(positions + 1, n).astype(float)
    return {
        "model": "normal_valuation",
        "trials": trials,
        "seed": config.seed,
        "per_solver": {sid: stat(per_solver[:, j]) for j, sid in enumerate(ids)},
        "total_payoff": stat(total),
        "beneficiary": stat(payouts[positions]),
        "executed_ops": stat(executed),
        "scaled_per_execution_payoff": ratio_stat(total, executed, float(n)),
    }


def reference_throughput(config: SimConfig) -> dict:
    model, trials = config.model, config.trials
    rng = np.random.default_rng(config.seed)
    rows = []
    for gamma in model.gammas:
        bids, median_index, costs = median_failure_costs(model, gamma)
        below = len(costs) - 1
        law = simulation._iid_law(model.q, below)
        positions = pattern_positions(rng.multinomial(trials, law))
        cost_table = np.array([float(cost) for cost in costs])
        rows.append(
            {
                "gamma": gamma,
                "ops": len(bids),
                "median_bid": format_amount(bids[median_index]),
                "mean_failure_cost": stat(cost_table[positions]),
                "success_probability": stat((positions < below).astype(float)),
            }
        )
    return {
        "model": "throughput_sweep",
        "trials": trials,
        "seed": config.seed,
        "rows": rows,
    }


def reference(config: SimConfig) -> dict:
    if isinstance(config.model, IidFailure):
        return reference_iid(config)
    if isinstance(config.model, NormalValuation):
        return reference_normal(config)
    return reference_throughput(config)


def assert_matches(actual, expected, path="report"):
    """Same keys in the same order, equal non-floats, floats within REL.

    Success probabilities are counts over trials and must be equal exactly.
    """
    assert type(actual) is type(expected), path
    if isinstance(expected, dict):
        assert list(actual) == list(expected), path
        for key in expected:
            assert_matches(actual[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), path
        for index, (a, e) in enumerate(zip(actual, expected)):
            assert_matches(a, e, f"{path}[{index}]")
    elif isinstance(expected, float) and "success_probability.mean" not in path:
        assert math.isclose(actual, expected, rel_tol=REL), (path, actual, expected)
    else:
        assert actual == expected, (path, actual, expected)


def bids(*values) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in values)


MODELS = {
    "iid_n1": IidFailure(n=1, q=0.3, v=Fraction(100), bids=bids(60)),
    "iid_n3_fee": IidFailure(
        n=3,
        q=0.45,
        v=Fraction(100),
        bids=bids(60, "61.5", 40),
        gas_price=Fraction(1, 10**5),
    ),
    "iid_n8": IidFailure(n=8, q=0.7, v=Fraction(50), bids=bids(*range(10, 42, 4))),
    "normal_n1": NormalValuation(n=1, v=100.0, sigma=5.0, bids=bids(98)),
    "normal_n4": NormalValuation(
        n=4, v=100.0, sigma=5.0, bids=bids(99, 101, "102.5", 97)
    ),
    "normal_n8_fee": NormalValuation(
        n=8,
        v=10.0,
        sigma=1.0,
        bids=bids(*(Fraction(95 + 2 * i, 10) for i in range(8))),
        gas_price=Fraction(1, 10**6),
    ),
    "normal_equal_bids": NormalValuation(
        n=3, v=100.0, sigma=5.0, bids=bids(101, 101, 101)
    ),
    # X² is 1e12 times the variance: raw sums of squares lose the spread
    "normal_far_from_zero": NormalValuation(
        n=3, v=1e6, sigma=1.0, bids=bids(10**6 - 1, 10**6, 10**6 + 1)
    ),
    "throughput": ThroughputSweep(
        gammas=(100_000, 200_000, 300_000, 900_000), q=0.4, bid_low=Fraction(7, 3)
    ),
}


@pytest.mark.parametrize("trials", TRIALS)
@pytest.mark.parametrize("name", MODELS)
def test_runner_matches_per_trial_reduction(name, trials):
    seed = len(name) * 1_000 + trials
    config = SimConfig(trials=trials, seed=seed, model=MODELS[name])
    assert_matches(run_simulation(config), reference(config))


@pytest.mark.parametrize(
    "model",
    [
        IidFailure(
            n=200, q=0.5, v=Fraction(100), bids=bids(*(100 - i / 4 for i in range(200)))
        ),
        NormalValuation(
            n=200, v=100.0, sigma=10.0, bids=bids(*(105 - i / 8 for i in range(200)))
        ),
    ],
    ids=["iid", "normal"],
)
def test_two_hundred_ops_match_per_trial_reduction(model):
    config = SimConfig(trials=BATCH + 1, seed=17, model=model)
    assert_matches(run_simulation(config), reference(config))


@pytest.mark.parametrize("trials", TRIALS)
def test_blocked_counts_equal_one_upfront_draw(trials):
    # the counts are one multinomial draw; the winners' sums, taken batch by
    # batch, equal those of the sampler's whole draw
    law = simulation._iid_law(0.45, 4)
    drawn = simulation._pattern_sums(np.random.default_rng(trials), trials, law)
    counts = np.random.default_rng(trials).multinomial(trials, law)
    assert drawn.counts.sum() == trials
    assert drawn.counts.tolist() == counts.tolist()

    model = NormalValuation(n=3, v=1.0, sigma=2.0, bids=bids(3, "1.5", 0))
    bid_row = np.array([3.0, 1.5, 0.0])
    law = simulation._normal_law(1.0, 2.0, bid_row)
    drawn = simulation._pattern_sums(
        np.random.default_rng(trials), trials, law, (1.0, 2.0, bid_row)
    )
    rng = np.random.default_rng(trials)
    counts = rng.multinomial(trials, law)
    assert drawn.counts.sum() == trials
    assert drawn.counts.tolist() == counts.tolist()
    realized = winner_draws(rng, counts, model, bid_row)
    positions = pattern_positions(counts)[: len(realized)]
    # each pattern's anchor is the larger of v and its winner's bid
    assert drawn.anchors.tolist() == [3.0, 1.5, 1.0, 0.0]
    for k in range(3):
        winners = realized[positions == k]
        total = drawn.sums[k] + drawn.counts[k] * drawn.anchors[k]
        assert math.isclose(total, winners.sum(), rel_tol=REL, abs_tol=1e-9)
        squares = ((winners - drawn.anchors[k]) ** 2).sum()
        assert math.isclose(drawn.squares[k], squares, rel_tol=REL, abs_tol=1e-9)


# ---------------------------------------------------------------------------
# the integer pattern table and rung costs equal float() of the exact values

MIXED_DENOMINATORS = (1, 3, 7, 40, 10**6, 10**18)


def mixed_amount(rng: random.Random, scale: int) -> Fraction:
    denominator = rng.choice(MIXED_DENOMINATORS)
    return Fraction(rng.randint(0, scale * denominator), denominator)


def mixed_transaction(rng: random.Random, n: int):
    """n admitted ops with mixed bid denominators, a nonzero gas price and
    private values for about two thirds of the solvers."""
    ops = []
    for index in range(n):
        reserved = rng.randint(1, 300_000)
        ops.append(
            SolverOperation(
                f"s{index:03d}",
                mixed_amount(rng, 500),
                reserved,
                rng.randint(0, reserved),
            )
        )
    user_gas = rng.randint(0, 100_000)
    price = Fraction(rng.randint(1, 10**4), rng.choice((10**6, 7 * 10**9)))
    schedule = GasSchedule(sum(op.gas_reserved for op in ops) + user_gas, user_gas, price)
    values = {
        op.solver_id: mixed_amount(rng, 900) for op in ops if rng.random() < 0.67
    }
    tx = admit_operations(ops, schedule, values)
    assert len(tx.solver_ops) == n
    return tx


@pytest.mark.parametrize("n", [*range(1, 13), 200])
def test_pattern_columns_equal_floats_of_settle_patterns(n):
    rng = random.Random(n)
    for _ in range(1 if n == 200 else 4):
        tx = mixed_transaction(rng, n)
        rows = settle_patterns(tx)
        ids = [op.solver_id for op in tx.solver_ops]
        payoffs = np.array([[float(row.solver_payoffs[sid]) for sid in ids] for row in rows])
        payouts = np.array([float(row.beneficiary_payout) for row in rows])
        expected = np.column_stack([payoffs, payoffs.sum(axis=1), payouts])
        columns = simulation._pattern_columns(tx)
        assert columns.dtype == expected.dtype
        assert np.array_equal(columns, expected)


def reference_rung(model: ThroughputSweep, gamma: int):
    """A throughput rung in Fractions: bids, median position, failure costs."""
    count = gamma // model.gas_per_op
    if count > 1:
        step = (model.bid_high - model.bid_low) / (count - 1)
        rung_bids = [model.bid_high - step * i for i in range(count)]
    else:
        rung_bids = [model.bid_high]
    median = math.ceil(count / 2) - 1
    costs = [
        failure_cost(rung_bids[median], winner, model.gas_per_op, gamma)
        for winner in rung_bids[median + 1 :] + [None]
    ]
    return rung_bids, median, costs


@pytest.mark.parametrize("seed", range(8))
def test_throughput_rungs_equal_failure_cost_reference(seed):
    rng = random.Random(seed)
    gas_per_op = rng.choice((1, 7, 50_000, 100_000))
    high, low = sorted((mixed_amount(rng, 300), mixed_amount(rng, 300)), reverse=True)
    counts = [1, *rng.sample(range(2, 80), 4)]
    gammas = tuple(count * gas_per_op + rng.randrange(gas_per_op) for count in counts)
    model = ThroughputSweep(
        gammas=gammas, gas_per_op=gas_per_op, bid_high=high, bid_low=low, q=0.35
    )
    trials = 257
    report = run_simulation(SimConfig(trials=trials, seed=seed, model=model))
    rng_draws = np.random.default_rng(seed)
    for row, gamma in zip(report["rows"], gammas, strict=True):
        rung_bids, median, costs = reference_rung(model, gamma)
        assert median_failure_costs(model, gamma) == (rung_bids, median, costs)
        # the runner's report equals one built from float() of the exact costs
        table = np.array([float(cost) for cost in costs])
        below = len(costs) - 1
        law = simulation._iid_law(model.q, below)
        drawn = simulation._pattern_sums(rng_draws, trials, law)
        cost, success = simulation._statistics(
            drawn, np.column_stack([table, np.arange(below + 1) < below])
        )
        assert row == {
            "gamma": gamma,
            "ops": len(rung_bids),
            "median_bid": format_amount(rung_bids[median]),
            "mean_failure_cost": cost,
            "success_probability": success,
        }


# ---------------------------------------------------------------------------
# the outcome-pattern law and the winner sampler, on their own


@pytest.mark.parametrize("q", [0.0, 1e-3, 0.3, 0.45, 0.5, 0.7, 0.999, 1.0])
@pytest.mark.parametrize("width", [0, 1, 8, 50, 200])
def test_iid_law_equals_exact_products(q, width):
    # the iid runner and each throughput rung draw from this law
    exact = Fraction(q)
    expected = [float(exact**k * (1 - exact)) for k in range(width)] + [float(exact**width)]
    law = simulation._iid_law(q, width)
    assert law.shape == (width + 1,)
    for k, (got, want) in enumerate(zip(law, expected)):
        assert math.isclose(got, want, rel_tol=1e-15, abs_tol=0.0), (k, got, want)


@pytest.mark.parametrize(
    "v, sigma, bid_list",
    [
        (100.0, 5.0, [99.0, 101.0, 102.5, 97.0]),
        (10.0, 1.0, [9.5 + 0.2 * i for i in range(8)]),
        (100.0, 10.0, [105 - i / 8 for i in range(200)]),
        (0.0, 1.0, [-8.0, 37.0, 0.0, -40.0]),
    ],
)
def test_normal_law_equals_erfc_reference(v, sigma, bid_list):
    law, reach = [], 1.0
    for bid in bid_list:
        z = (bid - v) / sigma
        law.append(reach * 0.5 * math.erfc(z / math.sqrt(2.0)))
        reach *= 0.5 * math.erfc(-z / math.sqrt(2.0))
    law.append(reach)
    got = simulation._normal_law(v, sigma, np.array(bid_list))
    assert got.tolist() == pytest.approx(law, rel=1e-14, abs=0.0)
    assert math.isclose(got.sum(), 1.0, rel_tol=1e-12)


def test_pattern_counts_pass_a_chi_square_test():
    law = simulation._iid_law(0.6, 8)
    trials = 10**6
    counts = simulation._pattern_sums(np.random.default_rng(8), trials, law).counts
    expected = trials * law
    statistic = float(((counts - expected) ** 2 / expected).sum())
    assert scipy_stats.chi2.sf(statistic, df=len(law) - 1) > 1e-3, statistic


@pytest.mark.parametrize("z", [-8.0, -1.0, 0.0, 0.5, 3.0, 10.0, 37.0])
def test_truncated_normal_sampler_matches_closed_form_moments(z):
    v, sigma, count = 100.0, 5.0, 40_000
    bid = v + sigma * z
    rng = np.random.default_rng(int(1000 * z) + 9_000)
    batches = list(simulation._truncated_normal(rng, count, v, sigma, bid))
    assert all(len(x) <= simulation._BATCH for x in batches)
    draws = np.concatenate(batches)
    assert len(draws) == count
    assert (draws > bid).all()
    # moments of N(v, σ²) truncated below at bid, in units of σ
    mean, var, kurtosis = (
        float(m) for m in scipy_stats.truncnorm.stats(z, np.inf, moments="mvk")
    )
    standard = (draws - v) / sigma
    mean_error = math.sqrt(var / count)
    var_error = math.sqrt((kurtosis + 2.0) * var**2 / count)
    assert abs(standard.mean() - mean) <= 5 * mean_error, (standard.mean(), mean)
    assert abs(standard.var(ddof=1) - var) <= 5 * var_error, (standard.var(ddof=1), var)


def test_truncated_normal_sampler_ends_below_float_resolution():
    # σ is below the float spacing of the bid, so v + σ·T rounds onto it;
    # each draw is raised to the next float and the loop still ends
    bid = 1e200
    rng = np.random.default_rng(1)
    draws = np.concatenate(list(simulation._truncated_normal(rng, 1000, bid, 1.0, bid)))
    assert len(draws) == 1000
    assert (draws == np.nextafter(bid, np.inf)).all()
