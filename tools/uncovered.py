"""List the statements of ``src/ofasim`` that the test suite never runs.

Usage (from the repository root):

    python3 tools/uncovered.py [PYTEST ARG ...]

It runs pytest in this process (by default ``-q -p no:cacheprovider tests``)
under ``sys.settrace`` and ``threading.settrace``, recording the lines run in
frames whose code lies in ``src/ofasim/``; no coverage package is needed. It
then prints, as ``path:line: source``, each AST statement of the package none
of whose lines ran. Docstrings, other bare constants, ``def`` and ``class``
lines, imports and ``global`` statements are skipped; a compound statement
counts as run when its header ran.

Only this process is traced, so code that the tests reach only through a
subprocess shows as unrun, such as the ``__main__`` blocks. Tracing makes the suite
about three times slower. The exit status is 0 once pytest has run, whatever
its outcome (printed on the last line).
"""

from __future__ import annotations

import ast
import glob
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "ofasim")
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
           ast.Global, ast.Nonlocal)


def trace_lines(run):
    """Call ``run()`` with line tracing on; return ``(its result, {path: lines})``."""
    hits: dict[str, set[int]] = {}
    inside: dict[str, set[int] | None] = {}  # code filename -> its hit set, or None

    def local(frame, event, arg):
        if event == "line":
            inside[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            path = os.path.realpath(name)
            inside[name] = (
                hits.setdefault(path, set()) if os.path.dirname(path) == PACKAGE else None
            )
        return local if inside[name] is not None else None

    threading.settrace(call)
    sys.settrace(call)
    try:
        result = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return result, hits


def statements(tree: ast.AST):
    """Each statement to report, as ``(first line, lines any of which count)``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, SKIPPED):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue  # a docstring or a bare ``...``
        if isinstance(node, ast.Try):
            continue  # ``try:`` runs no code of its own; its statements are listed
        body = getattr(node, "body", None)  # a compound statement's header ends at its body
        last = body[0].lineno - 1 if body else node.end_lineno
        yield node.lineno, range(node.lineno, max(last, node.lineno) + 1)


def main(argv: list[str]) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import pytest

    args = argv or ["-q", "-p", "no:cacheprovider", os.path.join(ROOT, "tests")]
    status, hits = trace_lines(lambda: pytest.main(args))
    unrun = 0
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
        lines, ran = source.splitlines(), hits.get(os.path.realpath(path), set())
        shown = os.path.relpath(path, ROOT)
        for first, span in sorted(statements(ast.parse(source))):
            if ran.isdisjoint(span):
                unrun += 1
                print(f"{shown}:{first}: {lines[first - 1].strip()}")
    print(f"# {unrun} statements never ran; pytest exit status {int(status)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
