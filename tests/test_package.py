"""The package imports its exact modules without numpy and loads the
Monte-Carlo names on first use."""

from __future__ import annotations

import os
import subprocess
import sys

import ofasim

PROBE = """
import sys
import ofasim
assert "numpy" not in sys.modules, "import ofasim loaded numpy"
assert "ofasim.simulation" not in sys.modules
assert set(ofasim.__all__) <= set(dir(ofasim))
assert ofasim.__all__ == sorted(set(ofasim.__all__)), "__all__ unsorted or repeated"
assert "EmpiricalStat" not in ofasim.__all__
for module, names in ofasim._EXPORTS.items():
    if module != "simulation":
        source = sys.modules[f"ofasim.{module}"]
        for name in names:
            assert getattr(ofasim, name) is getattr(source, name), name
leaked = {"_module", "_names", "_source", "module", "names", "name"} & set(dir(ofasim))
assert not leaked, leaked
from ofasim import EscrowLedger, guaranteed_minimum, settle
assert "numpy" not in sys.modules
from ofasim import run_simulation
assert "numpy" in sys.modules
assert run_simulation is ofasim.simulation.run_simulation
missing = [name for name in ofasim.__all__ if getattr(ofasim, name, None) is None]
assert not missing, missing
try:
    ofasim.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("unknown attribute resolved")
print("ok")
"""


def test_numpy_loads_only_with_the_simulation_names():
    # In a subprocess: this test session has loaded numpy already.
    src = os.path.dirname(os.path.dirname(ofasim.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "ok\n", "")


SIMULATE_PROBE = """
import contextlib, io, json, sys
from ofasim import cli
models = [
    {"kind": "iid_failure", "n": 3, "q": 0.4, "v": "100", "bids": ["60", "50", "40"]},
    {"kind": "normal_valuation", "n": 3, "v": "100", "sigma": 5,
     "bids": ["101", "99", "97"]},
]
for index, model in enumerate(models):
    path = f"{sys.argv[1]}/config{index}.json"
    with open(path, "w") as handle:
        config = {"schema": "simulate/1", "seed": 1, "trials": 5000, "model": model}
        json.dump(config, handle)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(["simulate", path]) == 0
    assert json.loads(out.getvalue())["model"] == model["kind"]
assert "numpy" in sys.modules
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, loaded
print("ok")
"""


def test_simulate_runs_without_scipy(tmp_path):
    # scipy is a test oracle only: importing it costs over a second
    src = os.path.dirname(os.path.dirname(ofasim.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SIMULATE_PROBE, str(tmp_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "ok\n", "")
