"""Every integer field is checked by ``money.require_int``, and only there.

Each field below gets a bool, a float, a numpy integer and a string, and the
values just outside and just inside its range. The library refuses each bad
value with one of ``require_int``'s two messages; the CLI passes JSON
integers through unchanged, so a JSON config holding one ends in exit 1 with
exactly that message as its one ``error:`` line and nothing on stdout.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np
import pytest

from ofasim import cli
from ofasim.auction import GasSchedule, SolverOperation
from ofasim.censorship import CensorshipScenario
from ofasim.equilibrium import BaselineGame, DiscreteTimeGame
from ofasim.simulation import (
    MAX_RUNG_OPS,
    IidFailure,
    NormalValuation,
    SimConfig,
    SpoofAttack,
    ThroughputSweep,
    TimelineConfig,
)

BIDS = (Fraction(5), Fraction(4))
IID = {"n": 2, "q": 0.5, "v": Fraction(10), "bids": BIDS}
NORMAL = {"n": 2, "v": 10.0, "sigma": 1.0, "bids": BIDS}
SCENARIO = {"gamma": 1000, "gas_price": Fraction(0), "rival_ops": ((Fraction(3), 1),)}
MODEL = IidFailure(**IID)


def _settle(op=None, schedule=None):
    op = {"solver_id": "a", "bid": "5", "gas_reserved": 100, **(op or {})}
    schedule = {"tx_gas_limit": 1000, "user_gas_consumed": 0, **(schedule or {})}
    return {"schema": "settle/1", "schedule": schedule, "solver_ops": [op]}


def _simulate(kind, model, **top):
    model = {"kind": kind, **model}
    return {"schema": "simulate/1", "seed": 1, "trials": 10, "model": model, **top}


_IID_JSON = {"n": 2, "q": 0.5, "v": "10", "bids": ["5", "4"]}
_NORMAL_JSON = {"n": 2, "v": "10", "sigma": 1.0, "bids": ["5", "4"]}
_RIVAL = {"bid": "3", "gas_reserved": 1}
_SPOOF_JSON = {"gamma": 1000, "rivals": [_RIVAL]}

# (id, name in the message, low, high or None, build(value), json(value) or None)
FIELDS = [
    ("tx_gas_limit", "tx_gas_limit", 1, None,
     lambda x: GasSchedule(tx_gas_limit=x, user_gas_consumed=0),
     lambda x: _settle(schedule={"tx_gas_limit": x})),
    ("user_gas_consumed", "user_gas_consumed", 0, None,
     lambda x: GasSchedule(tx_gas_limit=10**40, user_gas_consumed=x),
     lambda x: _settle(schedule={"tx_gas_limit": 10**40, "user_gas_consumed": x})),
    ("gas_reserved", "gas_reserved", 1, None,
     lambda x: SolverOperation(solver_id="a", bid=Fraction(5), gas_reserved=x),
     lambda x: _settle(op={"gas_reserved": x})),
    ("gas_used", "gas_used", 0, 100,
     lambda x: SolverOperation(solver_id="a", bid=Fraction(5), gas_reserved=100, gas_used=x),
     lambda x: _settle(op={"gas_used": x})),
    ("censorship_gamma", "gamma", 1, None,
     lambda x: CensorshipScenario(**{**SCENARIO, "gamma": x}),
     lambda x: _simulate("spoof_attack", {**_SPOOF_JSON, "gamma": x})),
    ("rival_gas", "rival gas", 1, 1000,
     lambda x: CensorshipScenario(**{**SCENARIO, "rival_ops": ((Fraction(3), x),)}),
     lambda x: _simulate(
         "spoof_attack", {**_SPOOF_JSON, "rivals": [{**_RIVAL, "gas_reserved": x}]}
     )),
    ("baseline_n", "n", 2, None,
     lambda x: BaselineGame(n=x, q=Fraction(1, 2), v=Fraction(10)), None),
    ("discrete_time_n", "n", 2, None,
     lambda x: DiscreteTimeGame(n=x, v=10.0, sigma=1.0), None),
    ("iid_n", "n", 1, None,
     lambda x: IidFailure(**{**IID, "n": x, "bids": BIDS[:1] * x if type(x) is int else BIDS}),
     lambda x: _simulate(
         "iid_failure", {**_IID_JSON, "n": x, "bids": ["5"] * x if type(x) is int else ["5"]}
     )),
    ("iid_gas_per_op", "gas_per_op", 1, None,
     lambda x: IidFailure(**IID, gas_per_op=x),
     lambda x: _simulate("iid_failure", {**_IID_JSON, "gas_per_op": x})),
    ("normal_gas_per_op", "gas_per_op", 1, None,
     lambda x: NormalValuation(**NORMAL, gas_per_op=x),
     lambda x: _simulate("normal_valuation", {**_NORMAL_JSON, "gas_per_op": x})),
    ("throughput_gas_per_op", "gas_per_op", 1, None,
     lambda x: ThroughputSweep(gammas=(1000,), gas_per_op=x),
     lambda x: _simulate("throughput_sweep", {"gammas": [1000], "gas_per_op": x})),
    ("throughput_gamma", "gammas[1]", 10, (MAX_RUNG_OPS + 1) * 10 - 1,
     lambda x: ThroughputSweep(gammas=(10, x), gas_per_op=10),
     lambda x: _simulate("throughput_sweep", {"gammas": [10, x], "gas_per_op": 10})),
    ("attacker_gas", "attacker_gas", 1, 1000,
     lambda x: SpoofAttack(scenario=CensorshipScenario(**SCENARIO), attacker_gas=x),
     lambda x: _simulate("spoof_attack", {**_SPOOF_JSON, "attacker_gas": x})),
    *(
        (name, name, 0, None,
         lambda x, name=name: TimelineConfig(**{name: x}),
         lambda x, name=name: _simulate("timeline", {name: x}))
        for name in ("user_latency_ms", "auction_duration_ms", "execution_delay_ms")
    ),
    ("trials", "trials", 1, 2**63 - 1,
     lambda x: SimConfig(trials=x, seed=1, model=MODEL),
     lambda x: _simulate("iid_failure", _IID_JSON, trials=x)),
    ("seed", "seed", 0, 2**64 - 1,
     lambda x: SimConfig(trials=1, seed=x, model=MODEL),
     lambda x: _simulate("iid_failure", _IID_JSON, seed=x)),
]


def _refused(low, high):
    """``(value, message without the name)`` for each value a field must refuse."""
    typed = [True, float(low), np.int64(low), str(low)]
    cases = [(value, f"must be an int, got {type(value).__name__}") for value in typed]
    bounds = f"must lie in [{low}, {'inf' if high is None else high}]"
    outside = [low - 1] + ([] if high is None else [high + 1])
    return cases + [(value, bounds) for value in outside]


REFUSALS = [
    pytest.param(build, json_of, value, f"{name} {message}", id=f"{key}-{value!r}")
    for key, name, low, high, build, json_of in FIELDS
    for value, message in _refused(low, high)
]


@pytest.mark.parametrize("build, json_of, value, message", REFUSALS)
def test_library_refuses_with_the_one_message_shape(build, json_of, value, message):
    with pytest.raises(ValueError) as excinfo:
        build(value)
    assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "key, name, low, high, build, json_of", FIELDS, ids=[field[0] for field in FIELDS]
)
def test_library_accepts_the_bounds(key, name, low, high, build, json_of):
    build(low)
    if high is not None:
        build(high)


# JSON has no numpy integers
@pytest.mark.parametrize(
    "build, json_of, value, message",
    [
        case
        for case in REFUSALS
        if case.values[1] is not None and not isinstance(case.values[2], np.integer)
    ],
)
def test_cli_ends_in_the_library_message(tmp_path, capsys, build, json_of, value, message):
    config = json_of(value)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert cli.main([config["schema"].split("/")[0], str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.err.endswith(f": {message}\n")


def test_cli_runs_each_config_at_a_bound(tmp_path, capsys):
    # the JSON configs above are valid away from the tested value
    for key, name, low, high, build, json_of in FIELDS:
        if json_of is None:
            continue
        path = tmp_path / f"{key}.json"
        config = json_of(low)
        path.write_text(json.dumps(config), encoding="utf-8")
        assert cli.main([config["schema"].split("/")[0], str(path)]) == 0, key
    capsys.readouterr()


def test_solver_id_is_checked_once_with_the_ledgers_wording():
    for solver_id in ("", 7, None, b"a"):
        with pytest.raises(ValueError) as excinfo:
            SolverOperation(solver_id=solver_id, bid=Fraction(1), gas_reserved=1)
        assert str(excinfo.value) == f"solver_id must be a non-empty str, got {solver_id!r}"
