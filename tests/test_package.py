"""The package imports its exact modules, the simulation models and the exact
runners without numpy, and loads the Monte-Carlo runners on first use."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

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
from ofasim import run_simulation, SimConfig, run_timeline
assert "numpy" not in sys.modules
assert "ofasim.simulation" not in sys.modules
from ofasim import run_iid_failure
assert "numpy" in sys.modules
assert run_simulation is ofasim.simulation.run_simulation
assert run_iid_failure is ofasim.simulation.run_iid_failure
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


CLI_PROBE = """
import contextlib, io, json, sys
from ofasim import cli

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(list(argv)) == 0, argv

def loaded():
    return sorted(name for name in sys.modules if name.split(".")[0] in ("numpy", "scipy"))

settle = f"{sys.argv[1]}/settle.json"
with open(settle, "w") as handle:
    json.dump({"schema": "settle/1",
               "schedule": {"tx_gas_limit": 1100000, "user_gas_consumed": 100000},
               "solver_ops": [{"solver_id": "a", "bid": "100", "gas_reserved": 100000}]}, handle)
models = {
    "iid": {"kind": "iid_failure", "n": 2, "q": 0.5, "v": "100", "bids": ["60", "50"]},
    "spoof": {"kind": "spoof_attack", "gamma": 1000000,
              "rivals": [{"bid": "100", "gas_reserved": 100000}]},
    "timeline": {"kind": "timeline", "schedule": {"tx_gas_limit": 1100000, "user_gas_consumed": 0},
                 "solver_ops": [{"solver_id": "a", "bid": "100", "gas_reserved": 100000}]},
}
for name, model in models.items():
    with open(f"{sys.argv[1]}/{name}.json", "w") as handle:
        json.dump({"schema": "simulate/1", "seed": 1, "trials": 100, "model": model}, handle)
config = f"{sys.argv[1]}/iid.json"
assert not loaded(), loaded()
run("settle", settle)
run("simulate", f"{sys.argv[1]}/spoof.json")
run("simulate", f"{sys.argv[1]}/timeline.json")
run("sweep", "censorship", "--gamma-points", "3")
run("sweep", "equilibrium", "--n", "2,5", "--sigma-min", "0.5", "--sigma-max", "1")
run("sweep", "equilibrium", "--v", "1", "--sigma-min", "1e-8", "--sigma-max", "1e-8", "--n", "3")
assert not loaded(), loaded()
assert "argparse" not in sys.modules  # the CLI reads its command line itself
assert "ofasim.simulation" not in sys.modules
run(*{"throughput": ["sweep", "throughput", "--trials", "100"], "simulate": ["simulate", config]}[sys.argv[2]])
assert "numpy" in sys.modules
print("ok")
"""


@pytest.mark.parametrize("command", ["throughput", "simulate"])
def test_cli_loads_numpy_only_to_simulate(tmp_path, command):
    src = os.path.dirname(os.path.dirname(ofasim.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", CLI_PROBE, str(tmp_path), command],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "ok\n", "")


# The probes above run the PEP 562 hooks in a subprocess; these run them here.
def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'ofasim' has no attribute 'no_such_name'$"):
        ofasim.no_such_name  # noqa: B018


def test_a_lazy_name_resolves_to_the_simulation_module():
    import ofasim.simulation

    assert ofasim.run_iid_failure is ofasim.simulation.run_iid_failure


def test_dir_lists_the_lazy_names_in_order():
    names = dir(ofasim)
    assert names == sorted(set(names))
    assert {"simulation", *ofasim.__all__} <= set(names)
