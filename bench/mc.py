"""mc: a Monte-Carlo study through ``ofasim.simulation.run_simulation``.

Each round runs the same five configs, chosen so that every regime has one
where it dominates:

- iid, n=200 x 1e5 trials: the settlement pattern table (n+1 settlements of
  n ops) dominates.
- iid and normal, n=50 x 1e6 trials: sampling, reduction and memory dominate.
- a throughput sweep over 20 budgets (2e4 trials).
- iid, n=50 x 1e6 trials at jobs=2 (the thread pool).

The sweep is kept short so that the median config, which op_p50_ms reports,
is one of the two iid n=50 x 1e6 configs in every run (about 0.4, 1.2, 1.2,
1.6 and 2.4 s on a 2-core VM).

Bids, q, sigma and the simulation seeds come from the benchmark seed.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import model


def _bids(rng: random.Random, n: int, low: int, high: int) -> tuple[Fraction, ...]:
    # distinct decimal bids with 4 fractional digits
    return tuple(Fraction(c, 10_000) for c in rng.sample(range(low * 10_000, high * 10_000), n))


def make_configs(seed: int) -> list[dict]:
    rng = random.Random(seed)
    sim_seed = rng.randrange(2**32)
    return [
        {"kind": "iid", "n": 200, "trials": 100_000, "jobs": 1, "seed": sim_seed,
         "q": rng.uniform(0.3, 0.7), "v": Fraction(100), "bids": _bids(rng, 200, 40, 90),
         "gas_price": Fraction(1, 100_000)},
        {"kind": "iid", "n": 50, "trials": 1_000_000, "jobs": 1, "seed": sim_seed + 1,
         "q": rng.uniform(0.3, 0.7), "v": Fraction(100), "bids": _bids(rng, 50, 40, 90),
         "gas_price": Fraction(0)},
        {"kind": "normal", "n": 50, "trials": 1_000_000, "jobs": 1, "seed": sim_seed + 2,
         "v": 100.0, "sigma": rng.uniform(5.0, 15.0), "bids": _bids(rng, 50, 85, 115),
         "gas_price": Fraction(0)},
        {"kind": "sweep", "trials": 20_000, "jobs": 1, "seed": sim_seed + 3,
         "gammas": tuple(1_000_000 * k for k in range(1, 21)), "q": rng.uniform(0.3, 0.7),
         "bid_high": Fraction(rng.randint(900_000, 1_100_000), 10_000),
         "bid_low": Fraction(rng.randint(400_000, 600_000), 10_000)},
        {"kind": "iid", "n": 50, "trials": 1_000_000, "jobs": 2, "seed": sim_seed + 4,
         "q": rng.uniform(0.3, 0.7), "v": Fraction(100), "bids": _bids(rng, 50, 40, 90),
         "gas_price": Fraction(0)},
    ]


GAS_PER_OP = 100_000


def trial_positions(cfg: dict) -> int:
    """Units of work of one config: sum of trials x positions."""
    if cfg["kind"] == "sweep":
        return cfg["trials"] * sum(g // GAS_PER_OP for g in cfg["gammas"])
    return cfg["trials"] * cfg["n"]


def expectations(cfg: dict):
    if cfg["kind"] == "iid":
        return model.iid_expectations(cfg["bids"], cfg["q"], cfg["v"], GAS_PER_OP, cfg["gas_price"])
    if cfg["kind"] == "normal":
        return model.normal_expectations(cfg["bids"], cfg["v"], cfg["sigma"], GAS_PER_OP, cfg["gas_price"])
    return model.throughput_rows(cfg["gammas"], GAS_PER_OP, cfg["bid_high"], cfg["bid_low"], cfg["q"])


def report_matches(cfg: dict, report: dict) -> bool:
    """Every reported mean against its exact expectation (scaled ratio of the
    normal model excepted: it has no closed form here)."""
    if "error" in report:
        return False
    trials = cfg["trials"]
    exp = expectations(cfg)
    if cfg["kind"] == "sweep":
        rows = report["rows"]
        return len(rows) == len(exp) and all(
            row["ops"] == count
            and model.amount_matches(row["median_bid"], median)
            and cost.accepts(row["mean_failure_cost"], trials)
            and success.accepts(row["success_probability"], trials)
            for row, (count, median, cost, success) in zip(rows, exp)
        )
    per_solver = list(report["per_solver"].values())
    keys = ["total_payoff", "beneficiary"]
    keys.append("success_probability" if cfg["kind"] == "iid" else "executed_ops")
    return (
        report["trials"] == trials
        and len(per_solver) == cfg["n"]
        and all(e.accepts(s, trials) for e, s in zip(exp["per_solver"], per_solver))
        and all(exp[key].accepts(report[key], trials) for key in keys)
    )


class Workload:
    def __init__(self, seed: int, ofasim) -> None:
        sim = ofasim.simulation
        self.simulation = sim
        self.cfgs = make_configs(seed)
        self.sim_configs = []
        for cfg in self.cfgs:
            if cfg["kind"] == "iid":
                m = sim.IidFailure(n=cfg["n"], q=cfg["q"], v=cfg["v"], bids=cfg["bids"],
                                   gas_per_op=GAS_PER_OP, gas_price=cfg["gas_price"])
            elif cfg["kind"] == "normal":
                m = sim.NormalValuation(n=cfg["n"], v=cfg["v"], sigma=cfg["sigma"], bids=cfg["bids"],
                                        gas_per_op=GAS_PER_OP, gas_price=cfg["gas_price"])
            else:
                m = sim.ThroughputSweep(gammas=cfg["gammas"], gas_per_op=GAS_PER_OP,
                                        bid_high=cfg["bid_high"], bid_low=cfg["bid_low"], q=cfg["q"])
            self.sim_configs.append(sim.SimConfig(trials=cfg["trials"], seed=cfg["seed"], model=m))
        self.work_per_round = float(sum(trial_positions(cfg) for cfg in self.cfgs))
        self.first_reports: list[dict] = []  # round one, checked in full
        self.rounds: list[list[bool]] = []  # per round: same reports as round one?

    def run_round(self, tick) -> tuple[list[int], float]:
        latencies, reports = [], []
        for cfg, config in zip(self.cfgs, self.sim_configs):
            tick()
            start = time.perf_counter_ns()
            try:
                reports.append(self.simulation.run_simulation(config, jobs=cfg["jobs"]))
            except Exception as exc:  # a crash fails this config, not the run
                reports.append({"error": f"{type(exc).__name__}: {exc}"})
            latencies.append(time.perf_counter_ns() - start)
        if not self.rounds:
            self.first_reports = reports
        self.rounds.append([r == first for r, first in zip(reports, self.first_reports)])
        return latencies, self.work_per_round

    def check(self) -> list[tuple[str, bool]]:
        first = [report_matches(cfg, r) for cfg, r in zip(self.cfgs, self.first_reports)]
        return [
            (cfg["kind"], f and s)
            for same in self.rounds
            for cfg, f, s in zip(self.cfgs, first, same)
        ]
