"""Every real-valued field is checked by ``money.require_real``, and only there.

Each field below gets a bool, a str, None, NaN, both infinities, the value
at or just past each finite bound, and 1 past each strict bound; each float
field also gets an exact 10**400, past the float range. The library refuses
each bad value with one of the helper's two messages; the CLI passes JSON
numbers through unchanged, so a JSON config holding one ends in exit 1 with
exactly that message as its one ``error:`` line and nothing on stdout. The
float models store floats, so an exact sigma runs the same sampler as its
float.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from ofasim import cli
from ofasim.equilibrium import (
    BaselineGame,
    DiscreteTimeGame,
    baseline_utility,
    conditional_success_value,
    deviation_utility,
)
from ofasim.simulation import (
    IidFailure,
    NormalValuation,
    SimConfig,
    ThroughputSweep,
    run_normal_valuation,
)

from _fields import IID, IID_JSON, NORMAL, NORMAL_JSON, assert_cli_refuses, simulate_json

INF = math.inf
GAME = BaselineGame(n=2, q=Fraction(1, 2), v=Fraction(100))

# (id, name in the message, low, high, strict, build(value), json(value) or None)
FIELDS = [
    ("iid_q", "q", 0, 1, False,
     lambda x: IidFailure(**{**IID, "q": x}),
     lambda x: simulate_json("iid_failure", {**IID_JSON, "q": x})),
    ("throughput_q", "q", 0, 1, True,
     lambda x: ThroughputSweep(gammas=(1000,), gas_per_op=100, q=x),
     lambda x: simulate_json("throughput_sweep", {"gammas": [1000], "gas_per_op": 100, "q": x})),
    ("normal_v", "v", -INF, INF, False,
     lambda x: NormalValuation(**{**NORMAL, "v": x}), None),
    ("normal_sigma", "sigma", 0, INF, True,
     lambda x: NormalValuation(**{**NORMAL, "sigma": x}),
     lambda x: simulate_json("normal_valuation", {**NORMAL_JSON, "sigma": x})),
    ("baseline_q", "q", 0, 1, True,
     lambda x: BaselineGame(n=2, q=x, v=Fraction(10)), None),
    ("baseline_v", "v", 0, INF, True,
     lambda x: BaselineGame(n=2, q=Fraction(1, 2), v=x), None),
    ("discrete_time_v", "v", -INF, INF, False,
     lambda x: DiscreteTimeGame(n=2, v=x, sigma=1.0), None),
    ("discrete_time_sigma", "sigma", 0, INF, True,
     lambda x: DiscreteTimeGame(n=2, v=10.0, sigma=x), None),
    ("conditional_v", "v", -INF, INF, False,
     lambda x: conditional_success_value(x, 1.0, 10.0), None),
    ("conditional_sigma", "sigma", 0, INF, True,
     lambda x: conditional_success_value(10.0, x, 10.0), None),
    ("conditional_b", "b", -INF, INF, False,
     lambda x: conditional_success_value(10.0, 1.0, x), None),
    ("baseline_utility_b", "b", 0, INF, False,
     lambda x: baseline_utility(GAME, x), None),
    ("deviation_b", "b", 0, INF, False,
     lambda x: deviation_utility(GAME, x, Fraction(1)), None),
    ("deviation_epsilon", "epsilon", 0, INF, False,
     lambda x: deviation_utility(GAME, Fraction(50), x), None),
]


def _interval(low, high, strict):
    opening = "(" if strict or low == -INF else "["
    closing = ")" if strict or high == INF else "]"
    return f"{opening}{low}, {high}{closing}"


def _refused(low, high, strict):
    """``(value, message without the name)`` for each value a field must refuse."""
    cases = [(value, f"must be a real number, got {type(value).__name__}")
             for value in (True, "1", None)]
    outside = [math.nan, INF, -INF]
    for bound, away in ((low, -INF), (high, INF)):
        if math.isfinite(bound):
            beyond = bound + (1 if away > 0 else -1)
            outside += [bound, beyond] if strict else [math.nextafter(bound, away)]
    return cases + [(value, f"must lie in {_interval(low, high, strict)}") for value in outside]


def _accepted(low, high, strict):
    """Values a field must accept: each closed bound and one point inside."""
    finite = [bound for bound in (low, high) if math.isfinite(bound)]
    inside = sum(finite) / 2 if len(finite) == 2 else low + 1 if finite == [low] else 0
    return ([] if strict else finite) + [inside]


# the float models convert first, so an exact number past the float range is refused
BEYOND_FLOAT = {
    "iid_q": 10**400, "throughput_q": 10**400, "normal_v": Fraction(10) ** 400,
    "normal_sigma": 10**400, "discrete_time_v": 10**400, "discrete_time_sigma": Fraction(10**400),
}
REFUSALS = [
    pytest.param(build, json_of, value, f"{name} {message}", id=f"{key}-{value!r}")
    for key, name, low, high, strict, build, json_of in FIELDS
    for value, message in _refused(low, high, strict)
] + [
    pytest.param(build, json_of, BEYOND_FLOAT[key], f"{name} is too large for a float",
                 id=f"{key}-10**400")
    for key, name, low, high, strict, build, json_of in FIELDS
    if key in BEYOND_FLOAT
]


@pytest.mark.parametrize("build, json_of, value, message", REFUSALS)
def test_library_refuses_with_the_one_message_shape(build, json_of, value, message):
    with pytest.raises(ValueError) as excinfo:
        build(value)
    assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "key, name, low, high, strict, build, json_of", FIELDS, ids=[field[0] for field in FIELDS]
)
def test_library_accepts_the_closed_bounds_and_the_inside(
    key, name, low, high, strict, build, json_of
):
    for value in _accepted(low, high, strict):
        build(value)


# JSON has no NaN or infinities: the decoder refuses those constants itself
@pytest.mark.parametrize(
    "build, json_of, value, message",
    [
        case
        for case in REFUSALS
        if case.values[1] is not None
        and not (isinstance(case.values[2], float) and not math.isfinite(case.values[2]))
    ],
)
def test_cli_ends_in_the_library_message(tmp_path, capsys, build, json_of, value, message):
    assert_cli_refuses(tmp_path, capsys, json_of(value), message)


@pytest.mark.parametrize("text", ["0", "1", "nan", "inf", "-inf"])
def test_sweep_q_flag_ends_in_the_library_message(capsys, text):
    assert cli.main(["sweep", "throughput", "--q", text]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: q must lie in (0, 1)\n")


def test_float_models_hold_floats():
    third = Fraction(1, 3)
    models = [
        (IidFailure(**{**IID, "q": third}), ("q",)),
        (ThroughputSweep(gammas=(1000,), gas_per_op=100, q=third), ("q",)),
        (NormalValuation(**{**NORMAL, "v": 10, "sigma": third}), ("v", "sigma")),
        (DiscreteTimeGame(n=2, v=10, sigma=third), ("v", "sigma")),
    ]
    for model, names in models:
        for name in names:
            assert type(getattr(model, name)) is float, (model, name)


def test_a_tiny_exact_sigma_is_refused_as_the_float_it_rounds_to():
    with pytest.raises(ValueError, match=r"^sigma must lie in \(0, inf\)$"):
        DiscreteTimeGame(n=2, v=0.0, sigma=Fraction(1, 10**400))


def test_an_exact_sigma_runs_as_its_float():
    def report(sigma):
        bids = (Fraction(11), Fraction(10), Fraction(9))
        model = NormalValuation(n=3, v=10, sigma=sigma, bids=bids)
        return run_normal_valuation(SimConfig(trials=20_000, seed=1, model=model))

    assert report(Fraction(1, 3)) == report(1 / 3)
