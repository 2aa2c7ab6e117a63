"""Benchmark of ofasim end to end, and per module from a separate traced run.

Usage (from the repository root):

    python3 bench/run.py --workload {auction_stream,mc,cli_batch} --seed N \\
        --seconds S --trace {0,1}

The process started by that command only launches workers: each worker is a
fresh interpreter that imports ``ofasim`` from ``src/`` of this checkout,
builds the workload's inputs from the seed and reports when it is ready for
its first timed operation. ``SETUP_SAMPLES - 1`` workers stop there; the last
one goes on to run whole rounds of the workload for ``--seconds`` seconds,
then checks every output outside the timed region.

``--trace 0`` prints the end-to-end metrics: setup_s (median over the
workers), work_per_s, op_p50_ms, op_p99_ms and peak_rss_mb (``ru_maxrss`` of
the measuring worker). Every time in them is scaled to a fixed reference
speed of the machine (see ``calibration.py``); the record in
``.bench_build/results/`` also gives the unscaled rate and set-up times.
``--trace 1`` runs half the time untraced and half
with every traced library function wrapped (see ``tracing.py``), and prints
the per-module metrics. The last line of standard output is the JSON result;
a copy with more detail goes to ``.bench_build/results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import auction_stream
import cli_batch
import mc
from calibration import REFERENCE_NS, Clock, typical_reference
from tracing import LAYERS, Tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_build")
MODULES = {"auction_stream": auction_stream, "mc": mc, "cli_batch": cli_batch}
SETUP_SAMPLES = 5
MIN_OPS = {"auction_stream": 1000, "mc": 1, "cli_batch": 1000}
WORKER_TIMEOUT_S = 170

PER_LAYER_SPANS = [
    "escrow.reserve", "escrow.prefetch_snapshot", "escrow.settle_reservation",
    "escrow.cancel_reservation", "auction.admit_operations", "settlement.guaranteed_minimum",
    "settlement.settle", "simulation.run_iid_failure", "simulation.run_normal_valuation",
    "simulation.run_throughput_sweep", "money.parse_amount", "money.format_amount",
    "equilibrium.optimal_bid_details", "censorship.resistance_sweep", "cli.main", "cli.settle",
    "cli.sweep", "cli.simulate",
]
SIM_RUNNERS = (
    "simulation.run_iid_failure", "simulation.run_normal_valuation", "simulation.run_throughput_sweep",
)
COUNTED_SPANS = {
    "escrow.reserve", "auction.admit_operations", "settlement.guaranteed_minimum",
    "settlement.settle", "money.parse_amount", "money.format_amount",
    "equilibrium.optimal_bid_details", "censorship.resistance_sweep",
}


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    names = []
    for span in PER_LAYER_SPANS:
        if span in COUNTED_SPANS:
            names.append((f"{span}.calls", "count"))
        names.append((f"{span}.self_ms", "ms"))
    names += [
        ("escrow.reserve.rejected", "count"),
        ("escrow.pending_peak", "count"),
        ("auction.admit_operations.admitted_per_candidate", "ratio"),
        ("equilibrium.optimal_bid_details.fallbacks", "count"),
        ("simulation.peak_alloc_mb", "MiB"),
        ("import.ofasim_ms", "ms"),
        ("import.scipy_optimize_ms", "ms"),
        ("trace.overhead_pct", "%"),
    ]
    names += [(f"share.{layer}_pct", "%") for layer in LAYERS + ("other",)]
    return names


def percentile(values, share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


# ---------------------------------------------------------------------------
# worker


def make_workload(name: str, seed: int, ofasim):
    if name != "cli_batch":
        return MODULES[name].Workload(seed, ofasim)
    import ofasim.cli  # noqa: F401  (the package does not import its CLI)

    os.makedirs(worker_dir(), exist_ok=True)
    return cli_batch.Workload(seed, ofasim, worker_dir())


def failures_are_known(verdicts: list[tuple[str, bool]], known: tuple[str, ...]) -> bool:
    """Every failed operation is of a kind the workload lists as a known fault."""
    return all(ok or kind in known for kind, ok in verdicts)


def worker_dir() -> str:
    """Directory of this worker's generated input files."""
    return os.path.join(WORK_DIR, f"cli_batch-{os.getpid()}")


def run_rounds(workload, seconds: float, min_ops: int) -> dict:
    """Whole rounds until ``seconds`` have passed and ``min_ops`` ops ran.

    Times are scaled to the reference speed (``calibration.py``). The rate is
    the work of all rounds over their total scaled time: the machine's speed
    drifts over tens of seconds, and a total over the run averages what the
    scaling leaves of that drift."""
    clock = Clock()
    latencies, scaled_ns, wall_ns = [], 0.0, 0
    start = time.perf_counter()
    while True:
        clock.begin_round()
        lat, units = workload.run_round(clock.tick)
        round_ns, scales = clock.end_round()
        scaled_ns += round_ns
        wall_ns += sum(clock.work_ns)
        latencies.append([ns * scale for ns, scale in zip(lat, scales)])
        elapsed = time.perf_counter() - start
        rounds = len(latencies)
        if elapsed >= seconds and rounds * len(lat) >= min_ops:
            return {
                "latencies": latencies, "rate": units * rounds * 1e9 / scaled_ns,
                "unscaled_rate": units * rounds * 1e9 / wall_ns, "wall_ns": wall_ns, "rounds": rounds,
                "elapsed": elapsed,
            }


def latency_summary(name: str, latencies: list[list[float]]) -> tuple[float, float, int]:
    """(p50 ms, p99 ms, samples). mc has one op per config and round: each
    config's median over the rounds is one sample."""
    if name == "mc":
        samples = [statistics.median(per_config) for per_config in zip(*latencies)]
    else:
        samples = [x for lat in latencies for x in lat]
    return percentile(samples, 0.50) / 1e6, percentile(samples, 0.99) / 1e6, len(samples)


def import_times() -> dict:
    """Cumulative import time of ofasim and of scipy.optimize under it, from
    ``python -X importtime`` in a fresh interpreter (median of three)."""
    samples = {"ofasim": [], "scipy.optimize": []}
    for _ in range(3):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import ofasim"],
            env=worker_env(), capture_output=True, text=True, timeout=60, check=True,
        )
        seen = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in samples:
                seen.setdefault(parts[2].strip(), int(parts[1]) / 1000.0)
        for key in samples:
            samples[key].append(seen.get(key, 0.0))
    return {key: statistics.median(vals) for key, vals in samples.items()}


def peak_alloc_round(workload) -> float:
    """One extra round with tracemalloc on around each simulation runner call;
    the largest per-call peak in MiB."""
    tracer = Tracer(alloc_spans=SIM_RUNNERS)
    tracer.install()
    try:
        workload.run_round(lambda: None)
    finally:
        tracer.uninstall()
    return tracer.peak_alloc_mb


def traced_metrics(workload, seconds: float) -> tuple[dict, dict]:
    untraced = run_rounds(workload, seconds / 2, 1)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_rounds(workload, seconds / 2, 1)
    finally:
        tracer.uninstall()
    rounds = traced["rounds"]
    values = {}
    for span in PER_LAYER_SPANS:
        if span in COUNTED_SPANS:
            values[f"{span}.calls"] = tracer.calls.get(span, 0) / rounds
        values[f"{span}.self_ms"] = tracer.self_ns.get(span, 0) / 1e6 / rounds
    c = tracer.counters
    values["escrow.reserve.rejected"] = c["escrow.reserve.rejected"] / rounds
    values["escrow.pending_peak"] = c["escrow.pending_peak"]
    candidates = c["auction.admit_operations.candidates"]
    values["auction.admit_operations.admitted_per_candidate"] = (
        c["auction.admit_operations.admitted"] / candidates if candidates else 0.0
    )
    values["equilibrium.optimal_bid_details.fallbacks"] = (
        c["equilibrium.optimal_bid_details.fallbacks"] / rounds
    )
    ran_simulation = any(tracer.calls.get(span) for span in SIM_RUNNERS)
    values["simulation.peak_alloc_mb"] = peak_alloc_round(workload) if ran_simulation else 0.0
    imports = import_times()
    values["import.ofasim_ms"] = imports["ofasim"]
    values["import.scipy_optimize_ms"] = imports["scipy.optimize"]
    values["trace.overhead_pct"] = (untraced["rate"] / traced["rate"] - 1.0) * 100.0
    wall_ns = traced["wall_ns"]  # without the calibration loop
    for layer in LAYERS:
        layer_ns = sum(ns for span, ns in tracer.self_ns.items() if span.split(".")[0] == layer)
        values[f"share.{layer}_pct"] = 100.0 * layer_ns / wall_ns
    values["share.other_pct"] = 100.0 - sum(values[f"share.{layer}_pct"] for layer in LAYERS)
    spans = {
        span: {"calls": tracer.calls[span], "self_ms": tracer.self_ns[span] / 1e6}
        for span in tracer.calls
    }
    detail = {"traced_rounds": rounds, "untraced_rounds": untraced["rounds"], "spans": spans}
    return values, detail


def worker(args) -> int:
    import ofasim

    if os.path.dirname(os.path.abspath(ofasim.__file__)) != os.path.join(SRC, "ofasim"):
        print(f"ofasim was imported from {ofasim.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    try:
        workload = make_workload(args.workload, args.seed, ofasim)
        gc.collect()
        gc.freeze()  # keep the inputs out of the collector's timed work
        ready = time.monotonic()
        reference_ns = typical_reference()
        if args.setup_only:
            print(json.dumps({"ready": ready, "reference_ns": reference_ns}))
            return 0
        if args.trace:
            values, detail = traced_metrics(workload, args.seconds)
            metrics = {k: {"value": values[k], "unit": unit} for k, unit in per_layer_metrics()}
        else:
            run = run_rounds(workload, args.seconds, MIN_OPS[args.workload])
            p50, p99, samples = latency_summary(args.workload, run["latencies"])
            metrics = {
                "work_per_s": {"value": run["rate"], "unit": "1/s"},
                "op_p50_ms": {"value": p50, "unit": "ms"},
                "op_p99_ms": {"value": p99, "unit": "ms"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "unit": "MiB",
                },
            }
            detail = {"rounds": run["rounds"], "timed_s": run["elapsed"], "latency_samples": samples,
                      "unscaled_work_per_s": run["unscaled_rate"]}
            if args.workload == "mc":
                detail["config_median_ms"] = [statistics.median(c) / 1e6 for c in zip(*run["latencies"])]
        verdicts = workload.check()
        failed = sum(not ok for _, ok in verdicts)
        correct = failures_are_known(verdicts, getattr(MODULES[args.workload], "KNOWN_FAULTS", ()))
        print(json.dumps({
            "ready": ready, "reference_ns": reference_ns, "correct": correct,
            "attempted": len(verdicts), "failed": failed, "metrics": metrics, "detail": detail,
        }))
        return 0
    finally:
        shutil.rmtree(worker_dir(), ignore_errors=True)


# ---------------------------------------------------------------------------
# launcher


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    # numpy asks for transparent huge pages on large arrays; whether it gets
    # them depends on the machine's free memory, which made the 1e6-trial
    # configs of mc run either about 0.8 s or about 1.2 s
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # the only threads are the library's own (jobs=2 on mc)
    return env


def launch(args, setup_only: bool) -> tuple[float, dict]:
    argv = [sys.executable, os.path.abspath(__file__), "--worker", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", str(int(args.trace))]
    if setup_only:
        argv.append("--setup-only")
    reference_ns = typical_reference()
    started = time.monotonic()
    proc = subprocess.run(argv, env=worker_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker for {args.workload} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # set-up is scaled by the machine's speed just before and just after it
    result["reference_ns"] = (reference_ns + result["reference_ns"]) / 2
    return result["ready"] - started, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=MODULES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        return worker(args)
    if not os.path.isdir(os.path.join(SRC, "ofasim")):
        print(f"no ofasim sources under {SRC}", file=sys.stderr)
        return 2

    launches = [launch(args, setup_only=True) for _ in range(SETUP_SAMPLES - 1)]
    launches.append(launch(args, setup_only=False))
    result = launches[-1][1]
    setups = [wall * REFERENCE_NS / res["reference_ns"] for wall, res in launches]
    metrics = result["metrics"]
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
    out = {key: result[key] for key in ("correct", "attempted", "failed")}
    out["metrics"] = metrics
    os.makedirs(os.path.join(WORK_DIR, "results"), exist_ok=True)
    record = os.path.join(WORK_DIR, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w", encoding="utf-8") as handle:
        json.dump({**out, "setup_samples_s": setups, "unscaled_setup_samples_s": [w for w, _ in launches],
                   "detail": result["detail"]}, handle, indent=2)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
