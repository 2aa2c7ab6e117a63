"""Every integer field is checked by ``money.require_int``, and only there.

Each field below gets a bool, a float, a numpy integer and a string, and the
values just outside and just inside its range. The library refuses each bad
value with one of ``require_int``'s two messages; the CLI passes JSON
integers through unchanged, so a JSON config holding one ends in exit 1 with
exactly that message as its one ``error:`` line and nothing on stdout.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from ofasim.auction import GasSchedule, SolverOperation
from ofasim.censorship import CensorshipScenario, naive_censorship_cost, resistance_sweep
from ofasim.equilibrium import BaselineGame, DiscreteTimeGame
from ofasim.escrow import required_escrow
from ofasim.settlement import failure_cost
from ofasim.simulation import (
    MAX_RUNG_OPS,
    IidFailure,
    NormalValuation,
    SimConfig,
    SpoofAttack,
    ThroughputSweep,
    TimelineConfig,
)

from _fields import (
    BIDS,
    IID,
    IID_JSON,
    NORMAL,
    NORMAL_JSON,
    RIVAL_JSON,
    SCENARIO,
    SPOOF_JSON,
    assert_cli_refuses,
    run_cli,
    settle_json,
    simulate_json,
)

MODEL = IidFailure(**IID)
WIDEST_GAMMA = (MAX_RUNG_OPS + 1) * 10 - 1  # at gas_per_op 10

# (id, name in the message, low, high or None, build(value), json(value) or None)
FIELDS = [
    ("tx_gas_limit", "tx_gas_limit", 1, None,
     lambda x: GasSchedule(tx_gas_limit=x, user_gas_consumed=0),
     lambda x: settle_json(schedule={"tx_gas_limit": x})),
    ("user_gas_consumed", "user_gas_consumed", 0, None,
     lambda x: GasSchedule(tx_gas_limit=10**40, user_gas_consumed=x),
     lambda x: settle_json(schedule={"tx_gas_limit": 10**40, "user_gas_consumed": x})),
    ("gas_reserved", "gas_reserved", 1, None,
     lambda x: SolverOperation(solver_id="a", bid=Fraction(5), gas_reserved=x),
     lambda x: settle_json(op={"gas_reserved": x})),
    ("gas_used", "gas_used", 0, 100,
     lambda x: SolverOperation(solver_id="a", bid=Fraction(5), gas_reserved=100, gas_used=x),
     lambda x: settle_json(op={"gas_used": x})),
    ("censorship_gamma", "gamma", 1, None,
     lambda x: CensorshipScenario(**{**SCENARIO, "gamma": x}),
     lambda x: simulate_json("spoof_attack", {**SPOOF_JSON, "gamma": x})),
    ("rival_gas", "rival gas", 1, 1000,
     lambda x: CensorshipScenario(**{**SCENARIO, "rival_ops": ((Fraction(3), x),)}),
     lambda x: simulate_json(
         "spoof_attack", {**SPOOF_JSON, "rivals": [{**RIVAL_JSON, "gas_reserved": x}]}
     )),
    ("naive_gamma", "gamma", 1, None, lambda x: naive_censorship_cost(x, Fraction(0)), None),
    ("sweep_gamma", "gamma", 1, None,
     lambda x: resistance_sweep([x], [Fraction(0)], CensorshipScenario(**SCENARIO)), None),
    ("failure_cost_gamma", "gamma", 1, None, lambda x: failure_cost(Fraction(1), None, 1, x), None),
    ("failure_cost_gas_reserved", "gas_reserved", 1, 1000,
     lambda x: failure_cost(Fraction(1), None, x, 1000), None),
    ("required_escrow_gas_reserved", "gas_reserved", 1, 1000,
     lambda x: required_escrow(Fraction(5), x, 1000, Fraction(0)), None),
    ("baseline_n", "n", 2, None,
     lambda x: BaselineGame(n=x, q=Fraction(1, 2), v=Fraction(10)), None),
    ("discrete_time_n", "n", 2, None,
     lambda x: DiscreteTimeGame(n=x, v=10.0, sigma=1.0), None),
    ("iid_n", "n", 1, None,
     lambda x: IidFailure(**{**IID, "n": x, "bids": BIDS[:1] * x if type(x) is int else BIDS}),
     lambda x: simulate_json(
         "iid_failure", {**IID_JSON, "n": x, "bids": ["5"] * x if type(x) is int else ["5"]}
     )),
    ("iid_gas_per_op", "gas_per_op", 1, None,
     lambda x: IidFailure(**IID, gas_per_op=x),
     lambda x: simulate_json("iid_failure", {**IID_JSON, "gas_per_op": x})),
    ("normal_gas_per_op", "gas_per_op", 1, None,
     lambda x: NormalValuation(**NORMAL, gas_per_op=x),
     lambda x: simulate_json("normal_valuation", {**NORMAL_JSON, "gas_per_op": x})),
    ("throughput_gas_per_op", "gas_per_op", 1, None,
     lambda x: ThroughputSweep(gammas=(1000,), gas_per_op=x),
     lambda x: simulate_json("throughput_sweep", {"gammas": [1000], "gas_per_op": x})),
    ("throughput_first_gamma", "gammas[0]", 10, WIDEST_GAMMA,
     lambda x: ThroughputSweep(gammas=(x,), gas_per_op=10),
     lambda x: simulate_json("throughput_sweep", {"gammas": [x], "gas_per_op": 10})),
    ("throughput_gamma", "gammas[1]", 10, WIDEST_GAMMA,
     lambda x: ThroughputSweep(gammas=(10, x), gas_per_op=10),
     lambda x: simulate_json("throughput_sweep", {"gammas": [10, x], "gas_per_op": 10})),
    ("attacker_gas", "attacker_gas", 1, 1000,
     lambda x: SpoofAttack(scenario=CensorshipScenario(**SCENARIO), attacker_gas=x),
     lambda x: simulate_json("spoof_attack", {**SPOOF_JSON, "attacker_gas": x})),
    *(
        (name, name, 0, None,
         lambda x, name=name: TimelineConfig(**{name: x}),
         lambda x, name=name: simulate_json("timeline", {name: x}))
        for name in ("user_latency_ms", "auction_duration_ms", "execution_delay_ms")
    ),
    ("trials", "trials", 1, 2**63 - 1,
     lambda x: SimConfig(trials=x, seed=1, model=MODEL),
     lambda x: simulate_json("iid_failure", IID_JSON, trials=x)),
    ("seed", "seed", 0, 2**64 - 1,
     lambda x: SimConfig(trials=1, seed=x, model=MODEL),
     lambda x: simulate_json("iid_failure", IID_JSON, seed=x)),
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
    assert_cli_refuses(tmp_path, capsys, json_of(value), message)


def test_cli_runs_each_config_at_a_bound(tmp_path, capsys):
    # the JSON configs above are valid away from the tested value
    for key, name, low, high, build, json_of in FIELDS:
        if json_of is not None:
            assert run_cli(tmp_path, json_of(low)) == 0, key
    capsys.readouterr()


def test_solver_id_is_checked_once_with_the_ledgers_wording():
    for solver_id in ("", 7, None, b"a"):
        with pytest.raises(ValueError) as excinfo:
            SolverOperation(solver_id=solver_id, bid=Fraction(1), gas_reserved=1)
        assert str(excinfo.value) == f"solver_id must be a non-empty str, got {solver_id!r}"
