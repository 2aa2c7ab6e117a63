"""Command-line front end.

Subcommands:
  - ``settle <file>``: settle a scenario file, print the accounting as JSON.
  - ``sweep <kind> [--out FILE]``: emit a figure-ready CSV for
    ``censorship``, ``throughput`` or ``equilibrium``.
  - ``simulate <file>``: run a Monte-Carlo / timeline config, print the report as JSON.

Scenario files are JSON with a versioned top-level ``"schema"`` field
(``settle/1``, ``simulate/1``). Every JSON object is checked against a
field-spec table (field name → parser, required or optional): unknown fields
are rejected at every nesting level, currency must be decimal strings (floats
are refused — binary floats would silently break exact accounting), gas and
counts must be integers, and ``NaN``/``Infinity`` are refused everywhere. An
optional field left out takes the library's default. Output currency is
serialized as decimal strings.

Exit codes: 0 on success, 1 on scenario or validation errors (with a one-line
diagnostic on stderr and nothing on stdout or in ``--out``), 2 on usage
errors. Output is built in memory and written only once the command has
succeeded. ``--jobs`` is accepted for compatibility and has no effect.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
from fractions import Fraction
from typing import Any, Callable, Mapping, Sequence

from .auction import Behavior, GasSchedule, SolverOperation, admit_operations
from .censorship import CensorshipScenario, resistance_sweep
from .equilibrium import DiscreteTimeGame, optimal_bid_details
from .money import ZERO, format_amount, parse_amount
from .settlement import guaranteed_minimum, settle
from .simulation import (
    IidFailure,
    NormalValuation,
    SimConfig,
    SpoofAttack,
    ThroughputSweep,
    Timeline,
    TimelineConfig,
    run_simulation,
)


class ScenarioError(Exception):
    """A scenario file failed validation; the message names the problem."""


# ---------------------------------------------------------------------------
# strict scenario validation

#: Turns one JSON value into a library value; called with (value, context).
Parser = Callable[[Any, str], Any]
#: Field name → (parser, required?) for one JSON object.
Spec = Mapping[str, tuple[Parser, bool]]


def _expect_object(value: Any, context: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(f"{context}: expected an object")
    return value


def _check_keys(obj: Mapping[str, Any], required: set, optional: set, context: str) -> None:
    keys = set(obj)
    missing = required - keys
    if missing:
        raise ScenarioError(f"{context}: missing field(s) {sorted(missing)}")
    unknown = keys - required - optional
    if unknown:
        raise ScenarioError(f"{context}: unknown field(s) {sorted(unknown)}")


def _fields(data: Any, spec: Spec, context: str) -> dict[str, Any]:
    """Validate one JSON object against ``spec`` and parse its fields.

    Optional fields that are absent are left out of the result, so the
    library's own defaults apply when it is passed on as keyword arguments.
    """
    obj = _expect_object(data, context)
    required = {name for name, (_, needed) in spec.items() if needed}
    _check_keys(obj, required, set(spec) - required, context)
    return {
        name: parse(obj[name], f"{context}.{name}")
        for name, (parse, _) in spec.items()
        if name in obj
    }


def _object(builder: Callable[..., Any], **spec: tuple[Parser, bool]) -> Parser:
    """Parser for a JSON object with the fields ``spec``, passed to ``builder``."""

    def parse(value: Any, context: str) -> Any:
        fields = _fields(value, spec, context)
        try:
            return builder(**fields)
        except ValueError as exc:
            raise ScenarioError(f"{context}: {exc}") from exc

    return parse


def _int(minimum: int | None = None) -> Parser:
    def parse(value: Any, context: str) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ScenarioError(f"{context}: expected an integer")
        if minimum is not None and value < minimum:
            raise ScenarioError(f"{context}: must be >= {minimum}")
        return value

    return parse


def _expect_number(value: Any, context: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{context}: expected a number")
    # false for NaN, an infinity and an integer too large for a float
    if not abs(value) <= sys.float_info.max:
        raise ScenarioError(f"{context}: expected a finite number")
    return float(value)


def _expect_str(value: Any, context: str) -> str:
    if not isinstance(value, str):
        raise ScenarioError(f"{context}: expected a string")
    return value


def _currency(value: Any, context: str) -> Fraction:
    if isinstance(value, float):
        raise ScenarioError(
            f"{context}: currency must be a decimal string, not a float "
            "(binary floats would break exact accounting)"
        )
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ScenarioError(f"{context}: currency must be a decimal string")
    try:
        return parse_amount(value)
    except ValueError as exc:
        raise ScenarioError(f"{context}: {exc}") from exc


def _currency_map(value: Any, context: str) -> dict[str, Fraction]:
    return {
        key: _currency(amount, f"{context}.{key}")
        for key, amount in _expect_object(value, context).items()
    }


def _behavior(value: Any, context: str) -> Behavior:
    name = _expect_str(value, context)
    try:
        return Behavior(name)
    except ValueError as exc:
        raise ScenarioError(
            f"{context}: behavior must be 'succeed' or 'revert'"
        ) from exc


def _array(item: Parser) -> Parser:
    def parse(value: Any, context: str) -> tuple:
        if not isinstance(value, list):
            raise ScenarioError(f"{context}: expected an array")
        return tuple(item(entry, f"{context}[{index}]") for index, entry in enumerate(value))

    return parse


def _schema(expected: str) -> Parser:
    def parse(value: Any, context: str) -> str:
        if value != expected:
            raise ScenarioError(f"{context}: expected {expected!r}, got {value!r}")
        return value

    return parse


def _load_json(path: str) -> Any:
    def reject(constant: str) -> None:
        raise ScenarioError(f"{path} is not valid JSON: {constant} is not a finite number")

    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle, parse_constant=reject)
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path} is not valid JSON: {exc}") from exc


_SCHEDULE = _object(
    GasSchedule,
    tx_gas_limit=(_int(), True),
    user_gas_consumed=(_int(), True),
    gas_price=(_currency, False),
)

_SOLVER_OP = _object(
    SolverOperation,
    gas_reserved=(_int(1), True),
    solver_id=(_expect_str, True),
    bid=(_currency, True),
    gas_used=(_int(0), False),
    behavior=(_behavior, False),
)


def _take(fields: dict[str, Any], cls: type) -> dict[str, Any]:
    """Remove from ``fields`` and return the entries named by ``cls``'s fields."""
    return {f.name: fields.pop(f.name) for f in dataclasses.fields(cls) if f.name in fields}


def _spoof_attack(rivals: tuple, gas_price: Fraction = ZERO, **fields: Any) -> SpoofAttack:
    # a spoof config may leave out the gas price; CensorshipScenario requires one
    scenario = CensorshipScenario(
        rival_ops=rivals, gas_price=gas_price, **_take(fields, CensorshipScenario)
    )
    return SpoofAttack(scenario=scenario, **fields)


def _timeline(**fields: Any) -> Timeline:
    config = TimelineConfig(**_take(fields, TimelineConfig))
    if "solver_ops" in fields:
        fields["candidates"] = fields.pop("solver_ops")
    return Timeline(config=config, **fields)


#: Fields shared by the two bidding-game models.
_GAME_OPS: Spec = {
    "bids": (_array(_currency), True),
    "gas_per_op": (_int(1), False),
    "gas_price": (_currency, False),
}


def _gas_or_null(value: Any, context: str) -> int | None:
    # null, like leaving the field out, reserves the whole budget
    return None if value is None else _int(1)(value, context)


_RIVAL = _object(
    lambda bid, gas_reserved: (bid, gas_reserved),
    bid=(_currency, True),
    gas_reserved=(_int(1), True),
)

#: Model kind → parser of the model object without its ``kind`` field.
_MODELS: dict[str, Parser] = {
    "iid_failure": _object(
        IidFailure,
        n=(_int(1), True),
        q=(_expect_number, True),
        v=(_currency, True),
        **_GAME_OPS,
    ),
    "normal_valuation": _object(
        NormalValuation,
        n=(_int(1), True),
        v=(_currency, True),
        sigma=(_expect_number, True),
        **_GAME_OPS,
    ),
    "throughput_sweep": _object(
        ThroughputSweep,
        gammas=(_array(_int(1)), True),
        gas_per_op=(_int(1), False),
        bid_high=(_currency, False),
        bid_low=(_currency, False),
        q=(_expect_number, False),
    ),
    "spoof_attack": _object(
        _spoof_attack,
        rivals=(_array(_RIVAL), True),
        gamma=(_int(1), True),
        gas_price=(_currency, False),
        attacker_value=(_currency, False),
        bid_margin=(_currency, False),
        attacker_gas=(_gas_or_null, False),
        attacker_behavior=(_behavior, False),
    ),
    "timeline": _object(
        _timeline,
        user_latency_ms=(_int(0), False),
        auction_duration_ms=(_int(0), False),
        execution_delay_ms=(_int(0), False),
        schedule=(_SCHEDULE, False),
        solver_ops=(_array(_SOLVER_OP), False),
        escrow_snapshot=(_currency_map, False),
    ),
}


def _parse_model(data: Any, context: str) -> Any:
    obj = _expect_object(data, context)
    kind = _expect_str(obj.get("kind", ""), f"{context}.kind")
    if kind not in _MODELS:
        *others, last = _MODELS
        raise ScenarioError(
            f"{context}.kind: unknown model kind {kind!r} "
            f"(expected {', '.join(others)} or {last})"
        )
    fields = {name: value for name, value in obj.items() if name != "kind"}
    return _MODELS[kind](fields, context)


_SETTLE: Spec = {
    "schema": (_schema("settle/1"), True),
    "schedule": (_SCHEDULE, True),
    "solver_ops": (_array(_SOLVER_OP), True),
    "private_values": (_currency_map, False),
}

_SIMULATE: Spec = {
    "schema": (_schema("simulate/1"), True),
    "model": (_parse_model, True),
    "trials": (_int(1), False),
    "seed": (_int(0), True),
}


# ---------------------------------------------------------------------------
# settle


def cmd_settle(args: argparse.Namespace) -> int:
    fields = _fields(_load_json(args.file), _SETTLE, "scenario")
    try:
        tx = admit_operations(
            fields["solver_ops"], fields["schedule"], fields.get("private_values")
        )
        result = settle(tx)
        floor = guaranteed_minimum(tx)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc

    report = {
        "admitted": [op.solver_id for op in tx.solver_ops],
        "winner": result.winner,
        "executed": [[sid, outcome.value] for sid, outcome in result.executed],
        "failure_costs": {
            sid: format_amount(cost) for sid, cost in result.failure_costs.items()
        },
        "solver_payoffs": {
            sid: format_amount(payoff)
            for sid, payoff in result.solver_payoffs.items()
        },
        "beneficiary_payout": format_amount(result.beneficiary_payout),
        "guaranteed_minimum": format_amount(floor),
        "total_gas_used": result.total_gas_used,
        "reverted": list(result.reverted_set),
    }
    print(json.dumps(report, indent=2))
    return 0


# ---------------------------------------------------------------------------
# sweep


def _comma_ints(text: str, context: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ScenarioError(f"{context}: expected comma-separated integers") from exc
    if not values:
        raise ScenarioError(f"{context}: empty list")
    return values


def _sweep_censorship(args: argparse.Namespace) -> list[list]:
    rivals = []
    for spec in args.rival or ["100:100000"]:
        bid_text, _, gas_text = spec.partition(":")
        if not gas_text:
            raise ScenarioError(f"--rival {spec!r}: expected BID:GAS")
        rivals.append((parse_amount(bid_text), int(gas_text)))
    if args.gamma_points < 1:
        raise ScenarioError("--gamma-points must be >= 1")
    if args.gamma_points == 1:
        gammas = [args.gamma_min]
    else:
        span = args.gamma_max - args.gamma_min
        gammas = [
            args.gamma_min + round(span * index / (args.gamma_points - 1))
            for index in range(args.gamma_points)
        ]
    prices = [parse_amount(part) for part in args.gas_prices.split(",") if part]
    if not prices:
        raise ScenarioError("--gas-prices: empty list")
    template = CensorshipScenario(
        gamma=max(gammas),
        gas_price=prices[0],
        rival_ops=tuple(rivals),
        attacker_value=parse_amount(args.attacker_value),
    )
    return [["gamma", "gas_price", "resistance"]] + [
        [gamma, format_amount(price), format_amount(value)]
        for gamma, price, value in resistance_sweep(gammas, prices, template)
    ]


def _sweep_throughput(args: argparse.Namespace) -> list[list]:
    model = ThroughputSweep(
        gammas=tuple(_comma_ints(args.gammas, "--gammas")),
        gas_per_op=args.gas_per_op,
        bid_high=parse_amount(args.bid_high),
        bid_low=parse_amount(args.bid_low),
        q=args.q,
    )
    config = SimConfig(trials=args.trials, seed=args.seed, model=model)
    report = run_simulation(config, jobs=args.jobs)
    return [["gamma", "ops", "mean_failure_cost", "std_error", "success_probability"]] + [
        [
            row["gamma"],
            row["ops"],
            f"{row['mean_failure_cost']['mean']:.12g}",
            f"{row['mean_failure_cost']['std_error']:.12g}",
            f"{row['success_probability']['mean']:.12g}",
        ]
        for row in report["rows"]
    ]


#: Most sigma values one ``sweep equilibrium`` grid may hold.
MAX_SIGMA_POINTS = 10_000


def _sweep_equilibrium(args: argparse.Namespace) -> list[list]:
    if not args.sigma_step > 0:
        raise ScenarioError("--sigma-step must be positive")
    for name in ("v", "sigma_min", "sigma_max"):
        if not math.isfinite(getattr(args, name)):
            raise ScenarioError(f"--{name.replace('_', '-')} must be finite")
    if args.sigma_min > args.sigma_max:
        raise ScenarioError("--sigma-min must not exceed --sigma-max")
    if args.sigma_max + args.sigma_step == args.sigma_max:
        raise ScenarioError("--sigma-step is too small to advance sigma at --sigma-max")
    ns = _comma_ints(args.n, "--n")
    sigmas = []
    sigma = args.sigma_min
    while sigma <= args.sigma_max + 1e-9:
        # the cap also ends a grid whose step stops advancing before --sigma-max
        if len(sigmas) == MAX_SIGMA_POINTS:
            raise ScenarioError(f"the sigma grid has more than {MAX_SIGMA_POINTS} points")
        sigmas.append(round(sigma, 10))
        sigma += args.sigma_step
    rows, warnings = [["n", "sigma", "v", "b_star", "b_star_over_v"]], []
    for n in ns:
        for sigma in sigmas:
            result = optimal_bid_details(DiscreteTimeGame(n=n, v=args.v, sigma=sigma))
            if not result.interior:
                warnings.append(
                    f"warning: no interior optimum at n={n}, sigma={sigma}; "
                    f"reporting the bracket argmax {result.bid:.6g} "
                    f"(utility is monotone over [{result.lower:.6g}, "
                    f"{result.upper:.6g}])"
                )
            rows.append(
                [n, sigma, args.v, f"{result.bid:.12g}", f"{result.bid / args.v:.12g}"]
            )
    # warned only once every row exists, so a failing sweep prints one error line
    for warning in warnings:
        print(warning, file=sys.stderr)
    return rows


_SWEEPS = {
    "censorship": _sweep_censorship,
    "throughput": _sweep_throughput,
    "equilibrium": _sweep_equilibrium,
}


def cmd_sweep(args: argparse.Namespace) -> int:
    buffer = io.StringIO()
    csv.writer(buffer).writerows(_SWEEPS[args.kind](args))
    if args.out is None:
        sys.stdout.write(buffer.getvalue())
        return 0
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(buffer.getvalue())
    except OSError as exc:
        raise ScenarioError(f"cannot write {args.out}: {exc}") from exc
    return 0


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args: argparse.Namespace) -> int:
    fields = _fields(_load_json(args.file), _SIMULATE, "config")
    try:
        config = SimConfig(
            trials=fields.get("trials", 1), seed=fields["seed"], model=fields["model"]
        )
        report = run_simulation(config, jobs=args.jobs)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    print(json.dumps(report, indent=2))
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    jobs_help = "accepted for compatibility; has no effect"
    parser = argparse.ArgumentParser(
        prog="ofasim",
        description=(
            "Settlement accounting, censorship analysis and bidding "
            "simulation for failure-cost order flow auctions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_settle = sub.add_parser("settle", help="settle a scenario file")
    p_settle.add_argument("file", help="JSON scenario (schema settle/1)")

    p_sweep = sub.add_parser("sweep", help="emit a parameter-sweep CSV")
    p_sweep.add_argument(
        "kind", choices=["censorship", "throughput", "equilibrium"]
    )
    p_sweep.add_argument("--out", help="write CSV here instead of stdout")
    p_sweep.add_argument("--jobs", type=int, default=1, help=jobs_help)
    # censorship
    p_sweep.add_argument("--gamma-min", type=int, default=1_000_000)
    p_sweep.add_argument("--gamma-max", type=int, default=10_000_000)
    p_sweep.add_argument("--gamma-points", type=int, default=10)
    p_sweep.add_argument("--gas-prices", default="0.00000075")
    p_sweep.add_argument(
        "--rival", action="append", metavar="BID:GAS", help="repeatable"
    )
    p_sweep.add_argument("--attacker-value", default="0")
    # throughput
    p_sweep.add_argument("--gammas", default="1000000,2000000,5000000,10000000")
    p_sweep.add_argument("--gas-per-op", type=int, default=100_000)
    p_sweep.add_argument("--bid-high", default="100")
    p_sweep.add_argument("--bid-low", default="50")
    p_sweep.add_argument("--q", type=float, default=0.5)
    p_sweep.add_argument("--trials", type=int, default=4000)
    p_sweep.add_argument("--seed", type=int, default=20_240_817)
    # equilibrium
    p_sweep.add_argument("--v", type=float, default=3500.0)
    p_sweep.add_argument("--sigma-min", type=float, default=0.5)
    p_sweep.add_argument("--sigma-max", type=float, default=12.0)
    p_sweep.add_argument("--sigma-step", type=float, default=0.5)
    p_sweep.add_argument("--n", default="2,5,10,25,50")

    p_sim = sub.add_parser("simulate", help="run a simulation config")
    p_sim.add_argument("file", help="JSON config (schema simulate/1)")
    p_sim.add_argument("--jobs", type=int, default=1, help=jobs_help)
    return parser


_PARSER = build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    if getattr(args, "jobs", 1) < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 1
    try:
        # looked up by name on each call, so a wrapper set on this module is used
        return globals()[f"cmd_{args.command}"](args)
    except (ScenarioError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
