"""Differential check: one sha256 per seed and benchmark workload.

Usage (from the repository root):

    python3 tools/differential.py [--src DIR | --against DIR] [SEED ...]

For each seed (default 1 2 3) it builds the benchmark's own ``cli_batch`` and
``auction_stream`` workloads (``bench/cli_batch.py``, ``bench/auction_stream.py``,
imported unchanged) against the ``ofasim`` package under ``--src`` (default:
``src/`` of this checkout) and runs one round of each in process:

- ``cli_batch``: every command's argv, exit code, stdout and stderr, with the
  temporary input directory masked, so the digest does not depend on where
  the inputs were written.
- ``auction_stream``: every order's digest (rejections, admitted ids,
  guarantee), the kept escrow snapshots, every settlement and the final
  balances.

Equal lines for two checkouts mean a change kept both workloads' outputs
identical. ``--against DIR`` makes that one command: it runs the digests for
``--src`` and for ``DIR/src``, each in its own interpreter, prints both sets,
and exits 1 if any digest line differs.

Each run also prints the package's net line count, as
``cat SRC/ofasim/*.py | wc -l`` gives it, on a ``#`` line; ``--against``
prints the change in it, which does not affect the exit status.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import glob
import hashlib
import importlib
import os
import subprocess
import sys
import tempfile
from collections.abc import Mapping
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MASK = "<inputs>"


def canonical(value) -> str:
    """A stable text form of a workload output: mappings sorted by key,
    dataclasses by field, exceptions by type and message."""
    if isinstance(value, Mapping):
        items = sorted((repr(key), canonical(item)) for key, item in value.items())
        return "{" + ", ".join(f"{key}: {item}" for key, item in items) + "}"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = dataclasses.fields(value)
        shown = (f"{f.name}={canonical(getattr(value, f.name))}" for f in fields)
        return f"{type(value).__name__}({', '.join(shown)})"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(canonical(item) for item in value) + "]"
    if isinstance(value, BaseException):
        return f"{type(value).__name__}({value})"
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return repr(value)


def cli_batch_digest(bench, ofasim, seed: int) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as workdir:
        workload = bench["cli_batch"].Workload(seed, ofasim, workdir)
        workload.run_round(lambda: None)
        digest = hashlib.sha256()
        for command in workload.commands:
            code, out, err = command.outcome
            record = canonical([command.kind, command.argv, code, out, err])
            digest.update(record.replace(workdir, MASK).encode() + b"\n")
    return len(workload.commands), digest.hexdigest()


def auction_stream_digest(bench, ofasim, seed: int) -> tuple[int, str]:
    workload = bench["auction_stream"].Workload(seed, ofasim)
    workload.run_round(lambda: None)
    round_one = workload.round_one
    record = canonical(
        [workload.rounds[0], round_one["snapshots"], round_one["settled"], round_one["balances"]]
    )
    return len(workload.orders), hashlib.sha256(record.encode()).hexdigest()


def src_lines(src: str) -> int:
    """Newlines in ``src/ofasim/*.py``, the count ``cat ... | wc -l`` prints."""
    total = 0
    for path in glob.glob(os.path.join(src, "ofasim", "*.py")):
        with open(path, "rb") as handle:
            total += handle.read().count(b"\n")
    return total


def compare(sources: list[str], seeds: list[int]) -> int:
    """Print the digests of each ``src`` directory; 1 if any digest differs."""
    digests = []
    for src in sources:
        argv = [sys.executable, os.path.abspath(__file__), "--src", src, *map(str, seeds)]
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True)
        print(f"# {src}\n{done.stdout}", end="", flush=True)
        digests.append([line for line in done.stdout.splitlines() if not line.startswith("#")])
    lines = [src_lines(src) for src in sources]
    print(f"# src lines: {lines[0]} here, {lines[1]} against ({lines[0] - lines[1]:+d})")
    same = digests[0] == digests[1]
    print("identical" if same else "DIFFERENT")
    return 0 if same else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", nargs="*", type=int, default=[1, 2, 3])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"), help="directory holding ofasim")
    parser.add_argument("--against", metavar="DIR", help="another checkout to compare with")
    args = parser.parse_args()
    if args.against:
        return compare([args.src, os.path.join(args.against, "src")], args.seeds)
    sys.path[:0] = [os.path.abspath(args.src), os.path.join(ROOT, "bench")]
    ofasim = importlib.import_module("ofasim")
    importlib.import_module("ofasim.cli")  # the package does not import its CLI
    bench = {name: importlib.import_module(name) for name in ("cli_batch", "auction_stream")}
    print(f"# src lines: {src_lines(args.src)}", flush=True)
    for seed in args.seeds:
        for name, digest_of in (
            ("cli_batch", cli_batch_digest),
            ("auction_stream", auction_stream_digest),
        ):
            ops, digest = digest_of(bench, ofasim, seed)
            print(f"{name} seed={seed} ops={ops} sha256={digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
