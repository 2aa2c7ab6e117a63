"""``tools/mutants.py`` makes the mutants its docstring lists, in source order."""

from __future__ import annotations

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"
_SPEC = importlib.util.spec_from_file_location("mutants", _PATH)
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)

SOURCE = '''def f(a, b):
    require_int(a, "a")
    if a + b >= 2 * b and a is not None:  # a - b
        a -= b // 2
    money.require_amount(
        b, "b")
    return a == b or (a) < -b
'''


def test_each_operator_and_bare_require_call_yields_one_mutant_in_order():
    made = mutants.mutations(SOURCE)
    assert [(line, mutation) for line, mutation, _ in made] == [
        (2, "drop require_int(...)"),
        (3, "+ -> -"),
        (3, ">= -> >"),
        (3, "* -> //"),
        (3, "is not -> is"),
        (4, "-= -> +="),
        (4, "// -> *"),
        (5, "drop money.require_amount(...)"),
        (7, "== -> !="),
        (7, "< -> <="),
    ]
    for _, mutation, text in made:
        compile(text, mutation, "exec")
        assert text.count("\n") == SOURCE.count("\n"), mutation
    assert made[1][2].splitlines()[2] == "    if a - b >= 2 * b and a is not None:  # a - b"
