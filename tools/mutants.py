"""Score the test suite by mutation: how many small faults in ``src/ofasim`` it catches.

Usage (from the repository root):

    python3 tools/mutants.py [MODULE ...]

MODULE is a module of ``src/ofasim`` without ``.py`` (``__init__`` for the
package); the default is all ten. The tool copies ``src/``, ``tests/``,
``bench/``, ``README.md`` and ``pyproject.toml`` into a temporary directory
and never writes into the checkout. It first runs each named module's test
files (``TESTS``) on the unmutated copy and exits 1 if any fails. Then, one
mutant at a time, it rewrites one spot of the module's source:

- ``+`` and ``-`` swap, as do ``*`` and ``//`` (also in ``+=`` and the like);
- each comparison becomes its boundary twin (``<`` and ``<=``, ``>`` and
  ``>=``), ``==`` and ``!=`` swap, as do ``is`` and ``is not``;
- each bare ``require_*(...)`` call statement becomes ``pass``.

For each mutant it runs ``python -m pytest -x -q -p no:cacheprovider`` on
the module's test files, with ``test_06`` (the acceptance test that fails by
design) deselected, a fixed ``--hypothesis-seed``, ``PYTHONHASHSEED=0``, no
bytecode written and no hypothesis example database kept from the mutant
before. A non-zero exit is a kill. A run that lasts over ``TIMEOUT`` seconds
has its process group killed and counts as a kill, reported apart. A run may
use at most ``MEMORY`` bytes of address space, so a mutant that lifts a size
cap fails (a kill) instead of filling the machine's memory. Survivors are
faults no mapped test notices; some are equivalent mutants that no test could
notice.

It prints one row per module (mutants, killed, timed out, survived and wall
seconds) as each finishes, then each survivor as ``path:line: mutation``
(two mutants of equal operators on one line print alike, in column order).
Mutants run one at a time: all 464 took 31 minutes on a 2-vCPU VM.
"""

from __future__ import annotations

import ast
import collections
import contextlib
import os
import pathlib
import re
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "bench", "README.md", "pyproject.toml")
FIELDS = (
    "tests/test_amount_fields.py", "tests/test_integer_fields.py", "tests/test_real_fields.py"
)
ACCEPTANCE = "tests/test_acceptance.py"
SIMULATION = ("tests/test_simulation.py", "tests/test_simulation_oracle.py", *FIELDS, ACCEPTANCE)
TESTS = {  # module -> the test files its mutants run, the module's own first
    "__init__": ("tests/test_package.py",),
    "money": ("tests/test_money.py", *FIELDS),
    "auction": ("tests/test_auction.py", "tests/test_settlement.py", *FIELDS),
    "settlement": (
        "tests/test_settlement.py", "tests/test_settlement_oracle.py", *FIELDS, ACCEPTANCE
    ),
    "escrow": ("tests/test_escrow.py", *FIELDS),
    "censorship": ("tests/test_censorship.py", *FIELDS, ACCEPTANCE),
    "equilibrium": ("tests/test_equilibrium.py", *FIELDS, ACCEPTANCE),
    "scenarios": SIMULATION,
    "simulation": SIMULATION,
    "cli": ("tests/test_cli.py", *FIELDS),
}
DESELECTED = (
    f"{ACCEPTANCE}::test_06_large_prize_optimal_bids_exceed_valuation_and_grow_with_sigma_and_n"
)
SEED = 0
TIMEOUT = 60  # seconds; the slowest module's unmutated tests take about 8 s
MEMORY = 2 << 30
OPS = {  # each operator as written; each pair swaps
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.FloorDiv: "//", ast.Lt: "<", ast.LtE: "<=",
    ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not",
}
_TEXTS = list(OPS.values())
TWIN = {text: _TEXTS[index ^ 1] for index, text in enumerate(_TEXTS)}


def mutations(source: str) -> list[tuple[int, str, str]]:
    """Each mutant of ``source`` in source order, as ``(line, mutation, mutated source)``."""
    lines = source.split("\n")
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line) + 1)

    def offset(lineno, col):  # ast columns count UTF-8 bytes
        return starts[lineno - 1] + len(lines[lineno - 1].encode()[:col].decode())

    def between(before, after, op, suffix=""):
        """The edit that swaps the operator ``op`` written between two nodes."""
        low = offset(before.end_lineno, before.end_col_offset)
        high = offset(after.lineno, after.col_offset)
        gap = re.sub(r"#[^\n]*", lambda m: " " * len(m.group()), source[low:high])  # no comments
        text = OPS[type(op)]
        found = re.search(re.escape(text + suffix).replace(r"\ ", r"\s+"), gap)
        return low + found.start(), low + found.end(), TWIN[text] + suffix, before.end_lineno

    edits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and type(node.op) in OPS:
            edits.append(between(node.left, node.right, node.op))
        elif isinstance(node, ast.AugAssign) and type(node.op) in OPS:
            edits.append(between(node.target, node.value, node.op, "="))
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            edits.extend(
                between(left, right, op)
                for left, op, right in zip(operands, node.ops, operands[1:])
                if type(op) in OPS
            )
        elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            func = node.value.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            if name.startswith("require_"):
                low = offset(node.lineno, node.col_offset)
                high = offset(node.end_lineno, node.end_col_offset)
                kept = "\n" * (node.end_lineno - node.lineno)  # every later line keeps its number
                edits.append((low, high, "pass" + kept, node.lineno))
    result = []
    for low, high, new, lineno in sorted(edits):
        old = source[low:high]
        if new.startswith("pass"):
            label = f"drop {old[:old.index('(')]}(...)"
        else:
            label = f"{' '.join(old.split())} -> {new}"
        result.append((lineno, label, source[:low] + new + source[high:]))
    return result


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY, MEMORY))


def run_tests(work: str, files) -> str:
    """``"survived"`` if ``files`` pass in ``work``, else ``"killed"`` or ``"timed out"``."""
    shutil.rmtree(os.path.join(work, ".hypothesis"), ignore_errors=True)
    env = {**os.environ, "PYTHONPATH": os.path.join(work, "src"),
           "PYTHONDONTWRITEBYTECODE": "1", "PYTHONHASHSEED": "0"}
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               f"--hypothesis-seed={SEED}", "--deselect", DESELECTED, *files]
    process = subprocess.Popen(command, cwd=work, env=env, stdout=subprocess.DEVNULL,
                               stderr=subprocess.DEVNULL, start_new_session=True,
                               preexec_fn=_limit_memory)
    try:
        outcome = "survived" if process.wait(timeout=TIMEOUT) == 0 else "killed"
    except subprocess.TimeoutExpired:
        outcome = "timed out"
    finally:  # also on an interrupt: the run is in its own session
        with contextlib.suppress(ProcessLookupError):
            os.killpg(process.pid, signal.SIGKILL)  # the run and whatever it started
        process.wait()
    return outcome


def main(argv: list[str]) -> int:
    names = argv or list(TESTS)
    unknown = [name for name in names if name not in TESTS]
    if unknown:
        print(f"unknown module(s): {' '.join(unknown)}; choose from {' '.join(TESTS)}",
              file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="ofasim-mutants-") as work:
        for part in COPIED:
            source, target = os.path.join(ROOT, part), os.path.join(work, part)
            if os.path.isdir(source):
                shutil.copytree(source, target, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, target)
        for name in names:
            if run_tests(work, TESTS[name]) != "survived":
                print(f"{name}: its tests fail on the unmutated source", file=sys.stderr)
                return 1
        print("module       mutants  killed timed out survived  seconds")
        survivors = []
        for name in names:
            shown = f"src/ofasim/{name}.py"
            path = pathlib.Path(work, shown)
            original = path.read_text(encoding="utf-8")
            counts, began = collections.Counter(), time.monotonic()
            for line, label, text in mutations(original):
                path.write_text(text, encoding="utf-8")
                outcome = run_tests(work, TESTS[name])
                counts[outcome] += 1
                if outcome == "survived":
                    survivors.append(f"{shown}:{line}: {label}")
            path.write_text(original, encoding="utf-8")  # for the next module's runs
            print(f"{name:<12} {sum(counts.values()):>7} {counts['killed']:>7} "
                  f"{counts['timed out']:>9} {counts['survived']:>8} "
                  f"{time.monotonic() - began:>8.0f}", flush=True)
        for survivor in survivors:
            print(survivor)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
