"""The Monte-Carlo runners against a per-trial reference reduction.

The reference draws every trial in one upfront call with the run's seed,
looks each trial's payoffs up in the pattern table, adds the winner's
realized X, and reduces the per-trial columns with ``np.mean`` and
``np.std(ddof=1) / sqrt(N)``, plus the delta-method ratio. The runners draw
in blocks and reduce per-pattern sums instead, so the floats may differ only
by rounding, the success probabilities not at all.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from ofasim import simulation
from ofasim.auction import GasSchedule, SolverOperation, admit_operations
from ofasim.money import format_amount
from ofasim.settlement import settle_patterns
from ofasim.simulation import (
    IidFailure,
    NormalValuation,
    SimConfig,
    ThroughputSweep,
    median_failure_costs,
    run_simulation,
)

BLOCK = simulation._BLOCK
TRIALS = (1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 5)
REL = 1e-9


def first_success(success: np.ndarray) -> np.ndarray:
    """Count of leading failures per row: the first success, or the width."""
    return np.logical_and.accumulate(~success, axis=1).sum(axis=1)


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


def reference_iid(config: SimConfig) -> dict:
    model, trials = config.model, config.trials
    ids, _, payoffs, payouts = game_tables(model)
    rng = np.random.default_rng(config.seed)
    positions = first_success(rng.random((trials, model.n)) >= model.q)
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


def reference_normal(config: SimConfig) -> dict:
    model, trials, n = config.model, config.trials, config.model.n
    ids, bid_row, payoffs, payouts = game_tables(model)
    rng = np.random.default_rng(config.seed)
    valuations = model.v + model.sigma * rng.standard_normal((trials, n))
    positions = first_success(valuations > bid_row)
    per_solver = payoffs[positions]
    rows = np.flatnonzero(positions < n)
    per_solver[rows, positions[rows]] += valuations[rows, positions[rows]]
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
        positions = np.zeros(trials, dtype=int)
        if below:
            positions = first_success(rng.random((trials, below)) >= model.q)
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
    config = SimConfig(trials=BLOCK + 1, seed=17, model=model)
    assert_matches(run_simulation(config), reference(config))


@pytest.mark.parametrize("trials", TRIALS)
def test_blocked_counts_equal_one_upfront_draw(trials):
    thresholds = np.array([0.2, 0.5, 0.9, 0.7])
    rng = np.random.default_rng(trials)
    drawn = simulation._first_success_sums(rng, trials, thresholds)
    upfront = np.random.default_rng(trials).random((trials, 4)) >= thresholds
    counts = np.bincount(first_success(upfront), minlength=5)
    assert drawn.counts.tolist() == counts.tolist()

    valuation, bid_row = (1.0, 2.0), np.array([3.0, 1.5, 0.0])
    drawn = simulation._first_success_sums(
        np.random.default_rng(trials), trials, bid_row, valuation
    )
    upfront = 1.0 + 2.0 * np.random.default_rng(trials).standard_normal((trials, 3))
    positions = first_success(upfront > bid_row)
    assert drawn.counts.tolist() == np.bincount(positions, minlength=4).tolist()
    for k in range(3):
        realized = upfront[positions == k, k]
        total = drawn.sums[k] + drawn.counts[k] * drawn.anchors[k]
        assert math.isclose(total, realized.sum(), rel_tol=REL, abs_tol=1e-9)
