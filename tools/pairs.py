"""Alternating benchmark pairs of two checkouts, with a verdict per metric.

Usage (from the repository root):

    python3 tools/pairs.py --against DIR --workload W [--pairs N] [--first-seed K]

For pair i (seeds K, K+1, ...) it runs the benchmark command of
``BENCHMARK.json`` (``python3 bench/run.py --workload W --seed K+i --seconds S
--trace 0``, where S is its ``run_seconds``) once in DIR, the parent, and once
in this checkout, the change, each in its own directory. Even pairs run the
parent first, odd pairs the change, so a drift of the machine's speed does
not always favour one side. ``--pairs`` defaults to 10.

It prints one line per pair (every end-to-end metric of both sides and the
rounds each side ran, read from the run's record under ``.bench_build/``),
then per metric each side's median and quartiles, the change's wins (ties
count for neither side) and a verdict, then each side's failed share and
rounds and the seeds whose run failed other than by a known fault of the
workload (``correct`` false in the run's result). The verdict is:

- ``gain``: at least 10 pairs ran, the change wins at least nine tenths of
  them, and its median is better than the parent's by more than the
  parent's interquartile range;
- ``worse beyond bound``: the change's median is worse than the parent's by
  more than the metric's ``bound`` in ``BENCHMARK.json`` (a share of the
  parent's median);
- ``unresolved``: neither, and the parent's interquartile range is wider than
  the bound, unless every run of the change beats every run of the parent;
- ``within bound``: otherwise.

A ``gain`` reads ``no gain: new fault`` when a run of the change has a
failure that is not a known fault while the parent's run on the same seed has
none. It exits 1 in that case, when a metric is worse beyond its bound, or
when the change fails a larger share of operations than the parent, and 0
otherwise. Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
WIN_SHARE = 0.9  # of all pairs run
MIN_PAIRS = 10  # fewer pairs cannot show a gain


def run_once(checkout: str, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``checkout``: its JSON result plus the rounds run."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
            "--trace", "0"]
    if argv[0] in ("python", "python3"):
        argv[0] = sys.executable
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{' '.join(argv)} in {checkout} exited with {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = os.path.join(checkout, ".bench_build", "results", f"{workload}-seed{seed}-trace0.json")
    with open(record, encoding="utf-8") as handle:
        result["rounds"] = json.load(handle)["detail"]["rounds"]
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive of the extremes."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, median, high


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[int, str]:
    """(the change's wins, the verdict) for one metric."""
    sign = 1.0 if better == "lower" else -1.0  # sign · (x − y) > 0: x is worse than y
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    p_low, p_median, p_high = quartiles(parent)
    c_median = statistics.median(change)
    iqr = p_high - p_low
    enough = len(parent) >= MIN_PAIRS and wins >= WIN_SHARE * len(parent)
    if enough and sign * (p_median - c_median) > iqr:
        return wins, "gain"
    if sign * (c_median - p_median) > bound * abs(p_median):
        return wins, "worse beyond bound"
    if iqr > bound * abs(p_median) and not all(
        sign * (p - c) > 0 for p in parent for c in change
    ):
        return wins, "unresolved"
    return wins, "within bound"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, metavar="DIR", help="the parent checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    if args.workload not in [w["name"] for w in benchmark["workloads"]]:
        parser.error(f"--workload must be one of BENCHMARK.json's workloads, not {args.workload!r}")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    seconds = benchmark["run_seconds"]
    checkouts = {"parent": os.path.abspath(args.against), "change": ROOT}
    metrics = benchmark["end_to_end"]
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    last_seed = args.first_seed + args.pairs - 1
    print(f"# {args.workload}: {args.pairs} pairs of {seconds:g} s, seeds "
          f"{args.first_seed}-{last_seed}; even pairs run the parent first", flush=True)
    for pair in range(args.pairs):
        seed = args.first_seed + pair
        for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
            runs[side].append(
                run_once(checkouts[side], benchmark["command"], args.workload, seed, seconds)
            )
        shown = "  ".join(
            f"{m['name']} {runs['parent'][-1]['metrics'][m['name']]['value']:.4g}"
            f" -> {runs['change'][-1]['metrics'][m['name']]['value']:.4g}"
            for m in metrics
        )
        rounds = " -> ".join(str(runs[side][-1]["rounds"]) for side in SIDES)
        print(f"pair {pair + 1} seed {seed}: {shown}  rounds {rounds}", flush=True)
    print(f"{'metric':<12} {'unit':<5} {'parent median [q1, q3]':<30} "
          f"{'change median [q1, q3]':<30} {'change/parent':<14} {'wins':<6} verdict")
    seeds = range(args.first_seed, last_seed + 1)
    # seeds where the change has a failure that is not a known fault and the parent has none
    new_faults = [
        seed for seed, p, c in zip(seeds, runs["parent"], runs["change"])
        if p["correct"] and not c["correct"]
    ]
    bad = bool(new_faults)
    for metric in metrics:
        name = metric["name"]
        values = {side: [run["metrics"][name]["value"] for run in runs[side]] for side in SIDES}
        wins, said = verdict(values["parent"], values["change"], metric["better"], metric["bound"])
        bad = bad or said == "worse beyond bound"
        if said == "gain" and new_faults:
            said = "no gain: new fault"
        spans = {
            side: "{1:.4g} [{0:.4g}, {2:.4g}]".format(*quartiles(values[side])) for side in SIDES
        }
        ratio = statistics.median(values["change"]) / statistics.median(values["parent"])
        print(f"{name:<12} {metric['unit']:<5} {spans['parent']:<30} {spans['change']:<30} "
              f"x{ratio:<13.3f} {wins}/{args.pairs:<4} {said}")
    shares = {}
    for side in SIDES:
        failed = sum(run["failed"] for run in runs[side])
        attempted = sum(run["attempted"] for run in runs[side])
        shares[side] = failed / attempted if attempted else 0.0
        rounds = [run["rounds"] for run in runs[side]]
        unknown = [seed for seed, run in zip(seeds, runs[side]) if not run["correct"]]
        print(f"{side}: failed {failed} of {attempted} ({shares[side]:.4%}); "
              f"not only known faults at seeds {unknown}; rounds {rounds}")
    if shares["change"] > shares["parent"]:
        print("the change fails a larger share of operations than the parent")
        bad = True
    if new_faults:
        print(f"the change fails where the parent does not, at seeds {new_faults}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
