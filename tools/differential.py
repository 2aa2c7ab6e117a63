"""Differential check: one sha256 per seed and workload (two benchmark rounds, a ledger session).

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

It also runs one seeded ``escrow`` session of ``ESCROW_STEPS`` random ledger
calls: deposits, reserves (accepted, short of escrow, or refused for a bad
id, gamma, gas or price), settlements (some overcharged), cancellations
(some of unknown handles) and snapshots. Its digest covers every outcome,
each exception's type and message, the ``pending()`` amounts and the final
balances, so it checks the ledger's error paths, which ``auction_stream``
never reaches. Amounts are digested exactly: each reservation's ``amount``
and raw ``amount_pair``, and each ``InsufficientEscrow``'s ``needed`` and
``available`` and the raw pairs it was raised with (its message rounds to 18
digits), so a pair that is off by a rounding or left unreduced shows as a
differing record.

Equal lines for two checkouts mean a change kept all three outputs
identical. ``--against DIR`` makes that one command: it runs the digests for
``--src`` and for ``DIR/src``, each in its own interpreter, prints both sets,
and exits 1 if any digest line differs. Each digest is the sha256 of a list
of records' outcomes, one a line (a ``cli_batch`` command, an
``auction_stream`` order, snapshot, settlement or the final balances, an
``escrow`` step); when a digest differs, ``--against``
prints its first ``SHOWN`` differing records, each with what it ran and both
outcomes. The two interpreters hand their records back through a JSON file
named by the ``DIFFERENTIAL_RECORDS`` environment variable.

Each run also prints, on a ``#`` line, the package's net line count, as
``cat SRC/ofasim/*.py | wc -l`` gives it, and beside it that of the
``tests/*.py`` next to ``SRC``, each split into code, docstring, comment and
blank lines: docstring lines are the spans of the module, class and function
docstrings in the AST, comment and blank lines the others that hold only a
comment or nothing, code lines the rest. So a change can tell a smaller
design, or a smaller suite, from shorter prose. ``--against`` prints each
count for both sides and the change in it, which does not affect the exit
status.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import enum
import glob
import hashlib
import importlib
import json
import os
import random
import subprocess
import sys
import tempfile
from collections.abc import Mapping
from decimal import Decimal
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MASK = "<inputs>"
ESCROW_STEPS = 2000
SHOWN = 5  # differing records printed per differing digest
RECORDS_ENV = "DIFFERENTIAL_RECORDS"
SOLVERS, AUCTIONEERS = ("s0", "s1", "s2", "ghost"), ("a", "b")  # "ghost" never deposits
# (solver, auctioneer, gamma, gas_price) that reserve refuses with ValueError
BAD_RESERVES = [
    ("", "a", 10**6, 1), (None, "a", 10**6, 1), ("s0", b"a", 10**6, 1), ("s0", True, 10**6, 1),
    ("s0", "a", True, 1), ("s0", "a", 1e6, 1), ("s0", "a", 0, 1), ("s0", "a", -1, 1),
    ("s0", "a", 1, 1), ("s0", "a", 10**6, 0.5), ("s0", "a", 10**6, "1"),
    ("s0", "a", 10**6, True), ("s0", "a", 10**6, Decimal(1)), ("s0", "a", 10**6, Fraction(-1, 3)),
]


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


# Each ``*_records`` function returns ``(ops, records)``: records are ``(what
# ran, its outcome)`` pairs of text, and the digest covers the outcomes.
Records = list[tuple[str, str]]


def cli_batch_records(bench, ofasim, seed: int) -> tuple[int, Records]:
    with tempfile.TemporaryDirectory() as workdir:
        workload = bench["cli_batch"].Workload(seed, ofasim, workdir)
        workload.run_round(lambda: None)
        records = []
        for command in workload.commands:
            code, out, err = command.outcome
            record = canonical([command.kind, command.argv, code, out, err])
            argv = canonical(command.argv)
            records.append((f"{command.kind} {argv}", record))
    masked = [(what.replace(workdir, MASK), text.replace(workdir, MASK)) for what, text in records]
    return len(workload.commands), masked


def auction_stream_records(bench, ofasim, seed: int) -> tuple[int, Records]:
    workload = bench["auction_stream"].Workload(seed, ofasim)
    workload.run_round(lambda: None)
    round_one = workload.round_one
    snapshots = round_one["snapshots"]
    records = [(f"order {index}", canonical(item)) for index, item in enumerate(workload.rounds[0])]
    records += [(f"snapshot after order {key}", canonical(snapshots[key])) for key in snapshots]
    records += [
        (f"settlement {index}", canonical(item)) for index, item in enumerate(round_one["settled"])
    ]
    records.append(("final balances", canonical(round_one["balances"])))
    return len(workload.orders), records


def escrow_records(bench, ofasim, seed: int) -> tuple[int, Records]:
    rng = random.Random(seed)
    ledger = ofasim.escrow.EscrowLedger()
    live: list[tuple[int, Fraction]] = []  # (handle, amount) of pending reservations
    calls, outcomes = [], []
    for step in range(ESCROW_STEPS):
        roll = rng.random()
        solver, auctioneer = rng.choice(SOLVERS), rng.choice(AUCTIONEERS)
        call = f"prefetch_snapshot({auctioneer!r}), pending({solver!r}, {auctioneer!r})"
        try:
            if roll < 0.15 and solver != "ghost":
                amount = Fraction(rng.randint(0, 400), rng.randint(1, 12))
                call = f"deposit({solver!r}, {auctioneer!r}, {amount})"
                outcome = ledger.deposit(solver, auctioneer, amount)
            elif roll < 0.6:
                gamma = rng.randint(10**6, 3 * 10**6)
                price = rng.choice((0, Fraction(1, 10**5), Fraction(3, 7 * 10**5)))
                bid = Fraction(rng.randint(0, 15_000), rng.choice((100, 300, 1000)))
                op = ofasim.auction.SolverOperation(solver, bid, rng.randint(1, gamma))
                if rng.random() < 0.1:
                    solver, auctioneer, gamma, price = rng.choice(BAD_RESERVES)
                call = (
                    f"reserve({solver!r}, {auctioneer!r}, <bid {bid}, gas_reserved "
                    f"{op.gas_reserved}>, {gamma!r}, {price!r})"
                )
                r = ledger.reserve(solver, auctioneer, op, gamma, price)
                live.append((r.handle, r.amount))
                outcome = (
                    r.handle, r.solver_id, r.auctioneer_id, r.op_ref, r.amount, r.amount_pair
                )
            elif roll < 0.9 and live:  # a refused call leaves its hold pending for good
                handle, amount = live.pop(rng.randrange(len(live)))
                if rng.random() < 0.05:
                    handle += 10**6  # no such reservation
                if roll < 0.8:
                    charge = amount * Fraction(rng.randint(0, 110), 100)
                    call = f"settle_reservation({handle}, {charge})"
                    outcome = ledger.settle_reservation(handle, charge)
                else:
                    call = f"cancel_reservation({handle})"
                    outcome = ledger.cancel_reservation(handle)
            else:
                outcome = (
                    dict(ledger.prefetch_snapshot(auctioneer)),
                    [(r.handle, r.amount_pair) for r in ledger.pending(solver, auctioneer)],
                )
        except ofasim.escrow.InsufficientEscrow as exc:
            # the message rounds to 18 digits; the amounts and raw pairs are exact
            outcome = (exc, exc.needed, exc.available, exc.args[2:])
        except (ValueError, KeyError) as exc:
            outcome = exc
        calls.append(f"step {step}: {call}")
        outcomes.append(outcome)
    calls.append("final balances")
    outcomes.append([ledger.to_json(), list(ledger)])
    return ESCROW_STEPS, list(zip(calls, map(canonical, outcomes)))


DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


KINDS = ("lines", "code", "docstring", "comment", "blank")


def line_counts(pattern: str) -> dict[str, int]:
    """The lines of the files ``pattern`` matches, as ``cat PATTERN | wc -l``
    counts them, and their split into code, docstring, comment and blank lines."""
    counts = dict.fromkeys(KINDS, 0)
    for path in glob.glob(pattern):
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
        docstrings = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
                docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
        lines = source.split("\n")[:-1]  # what follows the last newline is no line to wc
        counts["lines"] += len(lines)
        for number, line in enumerate(lines, 1):
            text = line.strip()
            kind = "blank" if not text else "comment" if text[0] == "#" else "code"
            counts["docstring" if number in docstrings else kind] += 1
    return counts


def tree_lines(src: str) -> dict[str, dict[str, int]]:
    """``line_counts`` of ``src/ofasim`` and of the ``tests/`` beside ``src``."""
    tests = os.path.join(os.path.dirname(os.path.abspath(src)), "tests", "*.py")
    return {"src": line_counts(os.path.join(src, "ofasim", "*.py")), "tests": line_counts(tests)}


def show_differences(key: str, here: list, against: list) -> None:
    """Print the first ``SHOWN`` records of digest ``key`` whose outcomes differ."""
    differing = [
        (what, mine, theirs)
        for (what, mine), (_, theirs) in zip(here, against)
        if mine != theirs
    ]
    print(f"{key}: {len(differing)} of {min(len(here), len(against))} records differ", end="")
    if len(here) != len(against):
        print(f" ({len(here)} records here, {len(against)} against)", end="")
    print(f"; the first {min(SHOWN, len(differing))}:")
    for what, mine, theirs in differing[:SHOWN]:
        print(f"  {what}\n    here:    {mine}\n    against: {theirs}")


def compare(sources: list[str], seeds: list[int]) -> int:
    """Print the digests of each ``src`` directory, and the first differing
    records of each digest that differs; 1 if any digest differs."""
    digests, records = [], []
    with tempfile.TemporaryDirectory() as scratch:
        for index, src in enumerate(sources):
            argv = [sys.executable, os.path.abspath(__file__), "--src", src, *map(str, seeds)]
            path = os.path.join(scratch, f"{index}.json")
            env = {**os.environ, RECORDS_ENV: path}
            done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True, env=env)
            print(f"# {src}\n{done.stdout}", end="", flush=True)
            lines = [line for line in done.stdout.splitlines() if not line.startswith("#")]
            digests.append({line.split(" ops=")[0]: line for line in lines})
            with open(path, encoding="utf-8") as handle:
                records.append(json.load(handle))
    here, against = (tree_lines(src) for src in sources)
    for tree, counts in here.items():
        for key, count in counts.items():
            theirs = against[tree][key]
            print(f"# {tree} {key}: {count} here, {theirs} against ({count - theirs:+d})")
    same = digests[0] == digests[1]
    print("identical" if same else "DIFFERENT")
    for key, line in digests[0].items():
        if digests[1].get(key) != line:
            show_differences(key, records[0][key], records[1].get(key, []))
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
    shown = []
    for tree, counts in tree_lines(args.src).items():
        split = ", ".join(f"{key} {counts[key]}" for key in KINDS[1:])
        shown.append(f"{tree} lines: {counts['lines']} ({split})")
    print(f"# {'; '.join(shown)}", flush=True)
    kept = {}
    for seed in args.seeds:
        for name, records_of in (
            ("cli_batch", cli_batch_records),
            ("auction_stream", auction_stream_records),
            ("escrow", escrow_records),
        ):
            ops, records = records_of(bench, ofasim, seed)
            digest = hashlib.sha256()
            for _, outcome in records:
                digest.update(outcome.encode() + b"\n")
            key = f"{name} seed={seed}"
            print(f"{key} ops={ops} sha256={digest.hexdigest()}", flush=True)
            kept[key] = records
    if RECORDS_ENV in os.environ:
        with open(os.environ[RECORDS_ENV], "w", encoding="utf-8") as handle:
            json.dump(kept, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
