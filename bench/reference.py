"""Reference figures for single library calls, printed as a Markdown table.

Usage (from the repository root): ``python3 bench/reference.py``

Re-measures the baselines listed under open item 1 of ROADMAP.md: settle at
n = 10/100/1000, admit_operations at n = 1000 with and without private
values, 1k and 4k escrow reserves on one key, the iid and normal Monte-Carlo
configs, jobs=2 against jobs=1, and the net ``src/`` line count. Each
Monte-Carlo case runs in its own interpreter so that its peak RSS is its own.
"""

from __future__ import annotations

import glob
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

MC_CASE = """
import resource, sys, time
from fractions import Fraction
from ofasim.simulation import IidFailure, NormalValuation, SimConfig, run_simulation
kind, n, trials, jobs = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])
bids = tuple(Fraction(10_000 - 37 * i, 100) for i in range(n))
if kind == "iid":
    model = IidFailure(n=n, q=0.5, v=Fraction(100), bids=bids)
else:
    model = NormalValuation(n=n, v=100.0, sigma=10.0, bids=bids)
start = time.perf_counter()
run_simulation(SimConfig(trials=trials, seed=1, model=model), jobs=jobs)
print(time.perf_counter() - start, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""


def median_ms(fn, repeat: int) -> float:
    """Median wall time of ``repeat`` calls, in ms."""
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def library_rows() -> list[tuple[str, str]]:
    from fractions import Fraction

    from ofasim.auction import Behavior, GasSchedule, SolverOperation, admit_operations
    from ofasim.escrow import EscrowLedger
    from ofasim.settlement import settle

    def ops(n: int, gamma: int) -> list:
        return [
            SolverOperation(f"s{i:04d}", Fraction(100_000 - 7 * i, 1000), gamma // n, gamma // n,
                            Behavior.SUCCEED if i == n - 1 else Behavior.REVERT)
            for i in range(n)
        ]

    rows = []
    for n in (10, 100, 1000):
        schedule = GasSchedule(tx_gas_limit=10_000_000, user_gas_consumed=0, gas_price=Fraction(1, 10**6))
        tx = admit_operations(ops(n, 10_000_000), schedule)
        rows.append((f"settle, n={n} (all admitted, last one wins)", f"{median_ms(lambda: settle(tx), 21):.3f} ms"))
    candidates = ops(1000, 10_000_000)
    schedule = GasSchedule(tx_gas_limit=10_000_000, user_gas_consumed=0)
    values = {op.solver_id: op.bid for op in candidates}
    for label, pv in (("with", values), ("without", None)):
        ms = median_ms(lambda: admit_operations(candidates, schedule, pv), 11)
        rows.append((f"admit_operations, n=1000, {label} private values", f"{ms:.2f} ms"))
    for count in (1000, 4000):
        ledger = EscrowLedger()
        ledger.deposit("s", "a", Fraction(10**9))
        op = SolverOperation("s", Fraction(1), 1000, 1000)
        start = time.perf_counter()
        for _ in range(count):
            ledger.reserve("s", "a", op, 1_000_000, Fraction(0))
        rows.append((f"{count} escrow reserves on one key", f"{time.perf_counter() - start:.2f} s"))
    return rows


def mc_rows() -> list[tuple[str, str]]:
    env = dict(os.environ, PYTHONPATH=SRC, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               NUMPY_MADVISE_HUGEPAGE="0")  # as in run.py
    rows = []
    for label, args in (
        ("iid MC, 1e6 trials x n=50, jobs=1", ("iid", 50, 1_000_000, 1)),
        ("iid MC, 1e6 trials x n=50, jobs=2", ("iid", 50, 1_000_000, 2)),
        ("iid MC, 1e5 trials x n=200", ("iid", 200, 100_000, 1)),
        ("normal MC, 1e6 trials x n=50", ("normal", 50, 1_000_000, 1)),
    ):
        runs = []
        for _ in range(3):
            out = subprocess.run([sys.executable, "-c", MC_CASE, *map(str, args)], env=env,
                                 capture_output=True, text=True, check=True)
            runs.append(tuple(map(float, out.stdout.split())))
        seconds = statistics.median(r[0] for r in runs)
        rss = statistics.median(r[1] for r in runs)
        rows.append((label, f"{seconds:.2f} s, {rss:.0f} MiB peak RSS"))
    return rows


def main() -> None:
    sys.path.insert(0, SRC)
    rows = library_rows() + mc_rows()
    lines = 0
    for path in glob.glob(os.path.join(SRC, "ofasim", "*.py")):
        with open(path, encoding="utf-8") as handle:
            lines += sum(1 for _ in handle)
    rows.append(("net src/ line count", str(lines)))
    print("| case | median |\n| --- | --- |")
    for label, value in rows:
        print(f"| {label} | {value} |")


if __name__ == "__main__":
    main()
