"""Every currency amount is checked by ``money.require_amount``, or, if it is
one of the three signed amounts, by ``money.require_exact``.

Each non-negative amount field gets a float, a bool, a string, a ``Decimal``,
-1 and -1/3. The library refuses each with one of ``require_amount``'s two
messages. A JSON config reaches an amount field only with a parsed decimal
(the CLI refuses a float, bool or other non-string itself), so each field a
JSON config reaches also gets a negative decimal through ``cli.main``: exit 1,
exactly the library message as the one ``error:`` line, nothing on stdout.
The signed fields get the same four types and accept -1/3. A refused
deposit, charge or reserve leaves the ledger as it was.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

import pytest

from ofasim.auction import (
    AuctionTransaction,
    Behavior,
    GasSchedule,
    SolverOperation,
    admit_operations,
)
from ofasim.censorship import CensorshipScenario, naive_censorship_cost, resistance_sweep
from ofasim.escrow import EscrowLedger, required_escrow
from ofasim.money import format_amount
from ofasim.settlement import failure_cost, settle, solver_payoff
from ofasim.simulation import (
    IidFailure,
    NormalValuation,
    SpoofAttack,
    ThroughputSweep,
    Timeline,
    TimelineConfig,
)

from _fields import (
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

SCHEDULE = GasSchedule(tx_gas_limit=1000, user_gas_consumed=0)
OP = SolverOperation(solver_id="a", bid=Fraction(5), gas_reserved=100, behavior=Behavior.SUCCEED)
RESULT = settle(admit_operations([OP], SCHEDULE))
TIMELINE_JSON = {"schedule": {"tx_gas_limit": 1000, "user_gas_consumed": 0}}


def _on_a_ledger(call):
    """``call(ledger, held)`` on a funded ledger holding one reservation; if
    it raises, the ledger must be as it was."""
    ledger = EscrowLedger()
    ledger.deposit("a", "x", 10)
    held = ledger.reserve("a", "x", OP, 1000, 0)
    before = ledger.to_json(), ledger.available("a", "x"), ledger.pending("a", "x")
    try:
        call(ledger, held)
    except ValueError:
        assert (ledger.to_json(), ledger.available("a", "x"), ledger.pending("a", "x")) == before
        raise


# (id, name in the message, build(value), json(decimal string) or None)
FIELDS = [
    ("schedule_gas_price", "gas_price",
     lambda x: GasSchedule(tx_gas_limit=1000, user_gas_consumed=0, gas_price=x),
     lambda x: settle_json(schedule={"gas_price": x})),
    ("solver_bid", "bid",
     lambda x: SolverOperation(solver_id="a", bid=x, gas_reserved=100),
     lambda x: settle_json(op={"bid": x})),
    ("private_value", "private value",
     lambda x: AuctionTransaction(schedule=SCHEDULE, solver_ops=(OP,), private_values={"a": x}),
     lambda x: settle_json(private_values={"a": x})),
    ("admitted_private_value", "private value",
     lambda x: admit_operations([OP], SCHEDULE, {"a": x}), None),
    ("censorship_gas_price", "gas_price",
     lambda x: CensorshipScenario(**{**SCENARIO, "gas_price": x}),
     lambda x: simulate_json("spoof_attack", {**SPOOF_JSON, "gas_price": x})),
    ("rival_bid", "rival bid",
     lambda x: CensorshipScenario(**{**SCENARIO, "rival_ops": ((x, 1),)}),
     lambda x: simulate_json(
         "spoof_attack", {**SPOOF_JSON, "rivals": [{**RIVAL_JSON, "bid": x}]}
     )),
    ("naive_gas_price", "gas_price", lambda x: naive_censorship_cost(1000, x), None),
    ("sweep_gas_price", "gas_price",
     lambda x: resistance_sweep([1000], [Fraction(1), x], CensorshipScenario(**SCENARIO)), None),
    ("required_escrow_bid", "bid", lambda x: required_escrow(x, 100, 1000, Fraction(0)), None),
    ("required_escrow_gas_price", "gas_price",
     lambda x: required_escrow(Fraction(5), 100, 1000, x), None),
    ("reserve_gas_price", "gas_price",
     lambda x: _on_a_ledger(lambda ledger, held: ledger.reserve("a", "x", OP, 1000, x)), None),
    ("deposit", "deposit amount",
     lambda x: _on_a_ledger(lambda ledger, held: ledger.deposit("a", "x", x)), None),
    ("charge", "charge",
     lambda x: _on_a_ledger(lambda ledger, held: ledger.settle_reservation(held.handle, x)),
     None),
    ("failing_bid", "failing_bid", lambda x: failure_cost(x, None, 1, 1), None),
    ("successful_bid", "successful_bid", lambda x: failure_cost(Fraction(1), x, 1, 1), None),
    ("solver_payoff", "private_value", lambda x: solver_payoff(RESULT, "a", x), None),
    ("iid_v", "v",
     lambda x: IidFailure(**{**IID, "v": x}),
     lambda x: simulate_json("iid_failure", {**IID_JSON, "v": x})),
    ("iid_bid", "bid",
     lambda x: IidFailure(**{**IID, "bids": (Fraction(5), x)}),
     lambda x: simulate_json("iid_failure", {**IID_JSON, "bids": ["5", x]})),
    ("iid_gas_price", "gas_price",
     lambda x: IidFailure(**IID, gas_price=x),
     lambda x: simulate_json("iid_failure", {**IID_JSON, "gas_price": x})),
    ("normal_bid", "bid",
     lambda x: NormalValuation(**{**NORMAL, "bids": (Fraction(5), x)}),
     lambda x: simulate_json("normal_valuation", {**NORMAL_JSON, "bids": ["5", x]})),
    ("normal_gas_price", "gas_price",
     lambda x: NormalValuation(**NORMAL, gas_price=x),
     lambda x: simulate_json("normal_valuation", {**NORMAL_JSON, "gas_price": x})),
    ("throughput_bid_high", "bid_high",
     lambda x: ThroughputSweep(gammas=(1000,), gas_per_op=100, bid_high=x, bid_low=Fraction(0)),
     lambda x: simulate_json(
         "throughput_sweep", {"gammas": [1000], "gas_per_op": 100, "bid_high": x, "bid_low": "0"}
     )),
    ("throughput_bid_low", "bid_low",
     lambda x: ThroughputSweep(gammas=(1000,), gas_per_op=100, bid_low=x),
     lambda x: simulate_json(
         "throughput_sweep", {"gammas": [1000], "gas_per_op": 100, "bid_low": x}
     )),
    ("escrow_snapshot", "escrow snapshot amount",
     lambda x: Timeline(config=TimelineConfig(), schedule=SCHEDULE, escrow_snapshot={"a": x}),
     lambda x: simulate_json("timeline", {**TIMELINE_JSON, "escrow_snapshot": {"a": x}})),
]
# (id, name in the message, build(value)) of the signed amounts, which no JSON
# config reaches with anything but a parsed decimal
SIGNED = [
    ("attacker_value", "attacker_value",
     lambda x: CensorshipScenario(**SCENARIO, attacker_value=x)),
    ("bid_margin", "bid_margin",
     lambda x: SpoofAttack(scenario=CensorshipScenario(**SCENARIO), bid_margin=x)),
    ("format_amount", "amount", format_amount),
]

REFUSED = [0.5, True, "1", Decimal(1)]
NEGATIVE = [-1, Fraction(-1, 3)]

INEXACT = [
    (value, f"must be an int or a Fraction, got {type(value).__name__}") for value in REFUSED
]
MESSAGES = INEXACT + [(value, "must be non-negative") for value in NEGATIVE]
REFUSALS = [
    pytest.param(build, value, f"{name} {message}", id=f"{key}-{value!r}")
    for key, name, build, _ in FIELDS
    for value, message in MESSAGES
] + [
    pytest.param(build, value, f"{name} {message}", id=f"{key}-{value!r}")
    for key, name, build in SIGNED
    for value, message in INEXACT
]


@pytest.mark.parametrize("build, value, message", REFUSALS)
def test_library_refuses_with_the_one_message_shape(build, value, message):
    with pytest.raises(ValueError) as excinfo:
        build(value)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("key, name, build, json_of", FIELDS, ids=[field[0] for field in FIELDS])
def test_library_accepts_zero(key, name, build, json_of):
    build(0)
    build(Fraction(0))


JSON_FIELDS = [field for field in FIELDS if field[3] is not None]


@pytest.mark.parametrize(
    "key, name, build, json_of", JSON_FIELDS, ids=[field[0] for field in JSON_FIELDS]
)
def test_cli_ends_in_the_library_message(tmp_path, capsys, key, name, build, json_of):
    assert_cli_refuses(tmp_path, capsys, json_of("-0.5"), f"{name} must be non-negative")


def test_cli_runs_each_config_at_zero(tmp_path, capsys):
    # the JSON configs above are valid away from the tested value
    for key, name, build, json_of in JSON_FIELDS:
        assert run_cli(tmp_path, json_of("0")) == 0, key
    capsys.readouterr()


def test_the_signed_amounts_accept_a_negative_value(tmp_path, capsys):
    minus_a_third = Fraction(-1, 3)
    scenario = CensorshipScenario(**SCENARIO, attacker_value=minus_a_third)
    assert scenario.attacker_value == minus_a_third
    assert SpoofAttack(scenario=scenario, bid_margin=minus_a_third).bid_margin == minus_a_third
    assert format_amount(minus_a_third) == "-0.333333333333333333"
    signed = {"attacker_value": "-0.5", "bid_margin": "-0.5"}
    spoof = simulate_json("spoof_attack", {**SPOOF_JSON, **signed})
    assert run_cli(tmp_path, spoof) == 0
    assert capsys.readouterr().err == ""
