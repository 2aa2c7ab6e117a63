"""Command-line front end.

Subcommands:
  - ``settle <file>``: settle a scenario file, print the accounting as JSON.
  - ``sweep <kind> [--out FILE]``: emit a figure-ready CSV for
    ``censorship``, ``throughput`` or ``equilibrium``.
  - ``simulate <file>``: run a Monte-Carlo / timeline config, print the report as JSON.

Scenario files are JSON with a versioned top-level ``"schema"`` field
(``settle/1``, ``simulate/1``). A JSON object that holds a library object has
its dataclass's fields, required where the dataclass has no default; only the
two file roots, the spoof model and its rivals have shapes of their own.
Unknown fields are refused at every nesting level, currency is read by
``money.parse_amount`` (decimal strings, never floats), and
``NaN``/``Infinity`` are refused everywhere. A ``normal_valuation``'s ``v``
is such a decimal string, as in ``iid_failure``, though the model stores a
float: reading it as a JSON number would refuse the existing files, which
write it as a string (``"v": "100"``). Other values reach the library
as given: it checks values, the CLI only the JSON's shape. An optional field
left out takes the library's default; so does a ``sweep`` flag for a model
field that has one. Reports print as ``json.dumps(report, indent=2)`` would,
currency as decimal strings.

A command line is a subcommand, its positional (FILE, or KIND straight after
``sweep``), then exact ``--flag VALUE`` or ``--flag=VALUE`` pairs. A value or
FILE is taken as given, even when it starts with ``-``; ``--`` does not end
the flags. ``--rival`` repeats, the last of any other repeated flag wins.
``-h``/``--help`` prints the help. Integer lists take ASCII digits only.

Exit codes: 0 on success, 1 on scenario or validation errors (with a one-line
diagnostic on stderr and nothing on stdout or in ``--out``), 2 on usage
errors. Output is built in memory and written only once the command has
succeeded. As a program, a stdout closed by its reader ends in exit 1.

Only ``simulate`` on a Monte-Carlo model and ``sweep throughput`` import
``ofasim.simulation`` and so numpy; every other command starts without it.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import os
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import Any, Callable, NoReturn, Sequence

from .auction import Behavior, GasSchedule, SolverOperation, admit_operations
from .censorship import CensorshipScenario, resistance_sweep
from .equilibrium import DiscreteTimeGame, optimal_bid_details
from .money import ZERO, format_amount, parse_amount
from .scenarios import (
    MAX_GRID_POINTS, IidFailure, NormalValuation, SimConfig, SpoofAttack, ThroughputSweep,
    Timeline, TimelineConfig, run_simulation,
)
from .settlement import guaranteed_minimum, settle


class ScenarioError(Exception):
    """A scenario file failed validation; the message names the problem."""


class _Invalid(ScenarioError):
    """A JSON value its parser refused, at ``path`` in the file.

    Parsers raise it with an empty path; each enclosing object or array
    prepends its segment as the error passes up (``.bid``, ``[3]``), so a
    file that validates builds no path string.
    """

    def __init__(self, problem: str, path: str = "") -> None:
        super().__init__(problem)
        self.problem, self.path = problem, path

    def __str__(self) -> str:
        return f"{self.path}: {self.problem}"


# ---------------------------------------------------------------------------
# strict scenario validation

#: Turns one JSON value into a library value, or raises ``_Invalid``.
Parser = Callable[[Any], Any]


def _expect_object(value: Any) -> dict:
    if not isinstance(value, dict):
        raise _Invalid("expected an object")
    return value


def _object(builder: Callable[..., Any], **spec: tuple[Parser, bool]) -> Parser:
    """Parser for a JSON object with the fields ``spec`` (name → (parser,
    required?)), passed to ``builder`` as keyword arguments.

    An optional field left out is left out of the call, so the library's own
    default applies. Fields are parsed in spec order, so the first failing one
    is reported.
    """
    required = frozenset(name for name, (_, needed) in spec.items() if needed)
    allowed = frozenset(spec)
    parsers = [(name, parse_field) for name, (parse_field, _) in spec.items()]

    def parse(value: Any) -> Any:
        keys = _expect_object(value).keys()
        if not required <= keys <= allowed:
            missing = required - keys
            if missing:
                raise _Invalid(f"missing field(s) {sorted(missing)}")
            raise _Invalid(f"unknown field(s) {sorted(keys - allowed)}")
        fields = {}
        try:
            for name, parse_field in parsers:
                if name in value:
                    fields[name] = parse_field(value[name])
        except _Invalid as exc:
            exc.path = f".{name}{exc.path}"
            raise
        try:
            return builder(**fields)
        except ValueError as exc:
            raise _Invalid(str(exc)) from exc

    return parse


def _given(value: Any) -> Any:
    """A value the library checks itself (gas, counts, seeds, q, sigma, solver ids)."""
    return value


def _fields(cls: type, **parsers: Parser) -> dict[str, tuple[Parser, bool]]:
    """The ``_object`` spec of the dataclass ``cls``: its init fields in order,
    each read by its entry in ``parsers`` or else passed through as given, and
    required when it has neither a default nor a default factory."""
    fields = [f for f in dataclasses.fields(cls) if f.init]
    unknown = parsers.keys() - {f.name for f in fields}
    if unknown:
        raise TypeError(f"{cls.__name__} has no field(s) {sorted(unknown)}")
    missing = dataclasses.MISSING
    return {
        f.name: (
            parsers.get(f.name, _given),
            f.default is missing and f.default_factory is missing,
        )
        for f in fields
    }


def _gas_used(value: Any) -> Any:
    if value is None:  # the library would read null as a left-out gas_used
        raise _Invalid("expected an integer, got null")
    return value


def _currency(value: Any) -> Fraction:
    try:
        return parse_amount(value)
    except ValueError as exc:
        raise _Invalid(str(exc)) from exc


def _currency_map(value: Any) -> dict[str, Fraction]:
    entries = _expect_object(value).items()
    amounts = {}
    try:
        for key, amount in entries:
            amounts[key] = _currency(amount)
    except _Invalid as exc:
        exc.path = f".{key}{exc.path}"
        raise
    return amounts


_BEHAVIORS = {behavior.value: behavior for behavior in Behavior}


def _behavior(value: Any) -> Behavior:
    if not isinstance(value, str):
        raise _Invalid("expected a string")
    behavior = _BEHAVIORS.get(value)
    if behavior is None:
        raise _Invalid("behavior must be 'succeed' or 'revert'")
    return behavior


def _array(item: Parser) -> Parser:
    def parse(value: Any) -> tuple:
        if not isinstance(value, list):
            raise _Invalid("expected an array")
        parsed = []
        try:
            for entry in value:
                parsed.append(item(entry))
        except _Invalid as exc:
            exc.path = f"[{len(parsed)}]{exc.path}"
            raise
        return tuple(parsed)

    return parse


def _schema(expected: str) -> Parser:
    def parse(value: Any) -> str:
        if value != expected:
            raise _Invalid(f"expected {expected!r}, got {value!r}")
        return value

    return parse


class _NonFinite(Exception):
    """A ``NaN``/``Infinity`` constant in a JSON file (the constant's name)."""


def _refuse_constant(constant: str) -> None:
    raise _NonFinite(constant)


_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        if text.startswith("\ufeff"):  # refused as ``json.loads`` refuses it
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        return _DECODER.decode(text)
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"{path} is not valid JSON: {exc}") from exc
    except _NonFinite as exc:
        raise ScenarioError(f"{path} is not valid JSON: {exc} is not a finite number") from None


_SCHEDULE = _object(GasSchedule, **_fields(GasSchedule, gas_price=_currency))

_SOLVER_OP = _object(
    SolverOperation,
    **_fields(SolverOperation, bid=_currency, gas_used=_gas_used, behavior=_behavior),
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


#: The currency fields of the two bidding-game models (a JSON v is a decimal string).
_GAME = {"v": _currency, "bids": _array(_currency), "gas_price": _currency}

_RIVAL = _object(
    lambda bid, gas_reserved: (bid, gas_reserved),
    bid=(_currency, True),
    gas_reserved=(_given, True),
)


#: Model kind → parser of the model object without its ``kind`` field.
_MODELS: dict[str, Parser] = {
    "iid_failure": _object(IidFailure, **_fields(IidFailure, **_GAME)),
    "normal_valuation": _object(NormalValuation, **_fields(NormalValuation, **_GAME)),
    "throughput_sweep": _object(
        ThroughputSweep,
        **_fields(ThroughputSweep, gammas=_array(_given), bid_high=_currency, bid_low=_currency),
    ),
    "spoof_attack": _object(
        _spoof_attack,
        rivals=(_array(_RIVAL), True),
        gamma=(_given, True),
        gas_price=(_currency, False),
        attacker_value=(_currency, False),
        bid_margin=(_currency, False),
        # null, like leaving the field out, reserves the whole budget
        attacker_gas=(_given, False),
        attacker_behavior=(_behavior, False),
    ),
    "timeline": _object(
        _timeline,
        **_fields(TimelineConfig),
        schedule=(_SCHEDULE, False),
        solver_ops=(_array(_SOLVER_OP), False),
        escrow_snapshot=(_currency_map, False),
    ),
}


def _parse_model(data: Any) -> Any:
    obj = _expect_object(data)
    kind = obj.get("kind", "")
    if not isinstance(kind, str):
        raise _Invalid("expected a string", ".kind")
    if kind not in _MODELS:
        *others, last = _MODELS
        raise _Invalid(
            f"unknown model kind {kind!r} (expected {', '.join(others)} or {last})",
            ".kind",
        )
    return _MODELS[kind]({name: value for name, value in obj.items() if name != "kind"})


_SETTLE = _object(
    dict,
    schema=(_schema("settle/1"), True),
    schedule=(_SCHEDULE, True),
    solver_ops=(_array(_SOLVER_OP), True),
    private_values=(_currency_map, False),
)


_SIMULATE = _object(
    lambda schema, model, seed, trials=1: SimConfig(trials, seed, model),
    schema=(_schema("simulate/1"), True),
    model=(_parse_model, True),
    trials=(_given, False),
    seed=(_given, True),
)


def _read(path: str, parse: Parser, root: str) -> Any:
    """Load the JSON file ``path`` and parse it; a refused value is reported
    at its path below ``root``."""
    data = _load_json(path)
    try:
        return parse(data)
    except _Invalid as exc:
        exc.path = root + exc.path
        raise


# ---------------------------------------------------------------------------
# report output

_ESCAPE = json.encoder.encode_basestring_ascii


class _Unsupported(Exception):
    """A value ``_emit`` leaves to ``json.dumps``."""


def _write_float(value: float) -> str:
    if math.isfinite(value):
        return float.__repr__(value)
    if value != value:
        return "NaN"
    return "Infinity" if value > 0 else "-Infinity"


#: The JSON text of a scalar, by its exact type; ``json.dumps`` takes any
#: other type, subclasses included (it writes an IntEnum or a numpy.float64
#: as its base type).
_WRITERS: dict[type, Callable[[Any], str]] = {
    str: _ESCAPE,
    int: int.__repr__,
    float: _write_float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _key(key: Any) -> str:
    write = _WRITERS.get(type(key))
    if write is None:
        raise _Unsupported
    return _ESCAPE(write(key))


def _emit(value: Any, indent: str) -> str:
    """``value`` as JSON, its nested lines indented by ``indent`` ("\\n" plus
    spaces); a string item is written in place, without a call."""
    write = _WRITERS.get(type(value))
    if write is not None:
        return write(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        items = [
            f"{_ESCAPE(key) if type(key) is str else _key(key)}: "
            f"{_ESCAPE(item) if type(item) is str else _emit(item, inner)}"
            for key, item in value.items()
        ]
        return f"{{{inner}{(',' + inner).join(items)}{indent}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        items = [_ESCAPE(item) if type(item) is str else _emit(item, inner) for item in value]
        return f"[{inner}{(',' + inner).join(items)}{indent}]"
    raise _Unsupported


def _dumps(report: Any) -> str:
    """``json.dumps(report, indent=2)``, byte for byte.

    With an indent, ``json`` falls back to its pure-Python encoder; this walks
    the report itself and writes strings with the C ``encode_basestring_ascii``.
    A type it does not know goes to ``json.dumps``, which then decides.
    """
    try:
        return _emit(report, "\n")
    except _Unsupported:
        return json.dumps(report, indent=2)


# ---------------------------------------------------------------------------
# settle


def cmd_settle(args: SimpleNamespace) -> int:
    fields = _read(args.file, _SETTLE, "scenario")
    tx = admit_operations(fields["solver_ops"], fields["schedule"], fields.get("private_values"))
    result = settle(tx)
    floor = guaranteed_minimum(tx)

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
    print(_dumps(report))
    return 0


# ---------------------------------------------------------------------------
# sweep


def _comma_ints(text: str, context: str) -> list[int]:
    parts = [part for part in text.split(",") if part]
    if not all(part.isascii() and part.isdigit() for part in parts):
        raise ScenarioError(f"{context}: expected comma-separated integers")
    if not parts:
        raise ScenarioError(f"{context}: empty list")
    return [int(part) for part in parts]


def _flag_amount(text: str, flag: str) -> Fraction:
    try:
        return parse_amount(text)
    except ValueError as exc:
        raise ScenarioError(f"{flag}: {exc}") from exc


def _sweep_censorship(args: SimpleNamespace) -> list[list]:
    rivals = []
    for spec in args.rival or ["100:100000"]:
        bid_text, _, gas_text = spec.partition(":")
        # digits only, as in the JSON configs: int() would also take 1_0000, +5 and spaces
        if not (gas_text.isascii() and gas_text.isdigit()):
            raise ScenarioError(f"--rival {spec!r}: expected BID:GAS")
        rivals.append((_flag_amount(bid_text, f"--rival {spec!r}"), int(gas_text)))
    if args.gamma_points < 1:
        raise ScenarioError("--gamma-points must be >= 1")
    if args.gamma_points > MAX_GRID_POINTS:
        raise ScenarioError(f"--gamma-points must be at most {MAX_GRID_POINTS}")
    if args.gamma_min > args.gamma_max:
        raise ScenarioError("--gamma-min must not exceed --gamma-max")
    span, intervals = args.gamma_max - args.gamma_min, max(args.gamma_points - 1, 1)
    # exact quotients, rounded half to even: a float one can pass --gamma-max past 2**53
    gammas = [
        args.gamma_min + round(Fraction(span * index, intervals))
        for index in range(args.gamma_points)
    ]
    prices = [_flag_amount(part, "--gas-prices") for part in args.gas_prices.split(",") if part]
    if not prices:
        raise ScenarioError("--gas-prices: empty list")
    template = CensorshipScenario(
        gamma=max(gammas),
        gas_price=prices[0],
        rival_ops=tuple(rivals),
        attacker_value=_flag_amount(args.attacker_value, "--attacker-value"),
    )
    rows = resistance_sweep(gammas, prices, template)
    price_texts = [format_amount(price) for price in prices] * len(gammas)
    return [["gamma", "gas_price", "resistance"]] + [
        [gamma, price_text, format_amount(value)]
        for (gamma, _, value), price_text in zip(rows, price_texts)
    ]


def _sweep_throughput(args: SimpleNamespace) -> list[list]:
    model = ThroughputSweep(
        gammas=tuple(_comma_ints(args.gammas, "--gammas")),
        gas_per_op=args.gas_per_op,
        bid_high=_flag_amount(args.bid_high, "--bid-high"),
        bid_low=_flag_amount(args.bid_low, "--bid-low"),
        q=args.q,
    )
    config = SimConfig(trials=args.trials, seed=args.seed, model=model)
    report = run_simulation(config)
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


def _sweep_equilibrium(args: SimpleNamespace) -> list[list]:
    if not args.sigma_step > 0:
        raise ScenarioError("--sigma-step must be positive")
    for name in ("v", "sigma_min", "sigma_max"):
        if not math.isfinite(getattr(args, name)):
            raise ScenarioError(f"--{name.replace('_', '-')} must be finite")
    if not args.v > 0:
        raise ScenarioError("--v must be positive")
    if args.sigma_min > args.sigma_max:
        raise ScenarioError("--sigma-min must not exceed --sigma-max")
    if args.sigma_max + args.sigma_step == args.sigma_max:
        raise ScenarioError("--sigma-step is too small to advance sigma at --sigma-max")
    ns = _comma_ints(args.n, "--n")
    sigmas = []
    sigma = args.sigma_min
    while sigma <= args.sigma_max + 1e-9:
        # the cap also ends a grid whose step stops advancing before --sigma-max
        if len(sigmas) == MAX_GRID_POINTS:
            raise ScenarioError(f"the sigma grid has more than {MAX_GRID_POINTS} points")
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


def cmd_sweep(args: SimpleNamespace) -> int:
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


def cmd_simulate(args: SimpleNamespace) -> int:
    config = _read(args.file, _SIMULATE, "config")
    print(_dumps(run_simulation(config)))
    return 0


# ---------------------------------------------------------------------------
# command line


#: The ``sweep`` options, flag → (type, default), from which the reader and
#: the help text are both built; a model field's default is the model's.
_SWEEP_OPTIONS: dict[str, tuple[Callable[[str], Any], Any]] = {
    "--out": (str, None),
    # censorship
    "--gamma-min": (int, 1_000_000),
    "--gamma-max": (int, 10_000_000),
    "--gamma-points": (int, 10),
    "--gas-prices": (str, "0.00000075"),
    "--rival": (str, None),  # the one flag that repeats
    "--attacker-value": (str, format_amount(CensorshipScenario.attacker_value)),
    # throughput
    "--gammas": (str, "1000000,2000000,5000000,10000000"),
    "--gas-per-op": (int, ThroughputSweep.gas_per_op),
    "--bid-high": (str, format_amount(ThroughputSweep.bid_high)),
    "--bid-low": (str, format_amount(ThroughputSweep.bid_low)),
    "--q": (float, ThroughputSweep.q),
    "--trials": (int, 4000),
    "--seed": (int, 20_240_817),
    # equilibrium
    "--v": (float, 3500.0),
    "--sigma-min": (float, 0.5),
    "--sigma-max": (float, 12.0),
    "--sigma-step": (float, 0.5),
    "--n": (str, "2,5,10,25,50"),
}

#: Each ``sweep`` namespace attribute's default, in the table's order.
_SWEEP_DEFAULTS = {flag[2:].replace("-", "_"): spec[1] for flag, spec in _SWEEP_OPTIONS.items()}

_USAGE = "usage: ofasim settle FILE | simulate FILE | sweep KIND [--flag VALUE ...]"


def _help() -> NoReturn:
    flags = [f"  {flag:<17}{default}" for flag, (_, default) in _SWEEP_OPTIONS.items()]
    print(_USAGE, f"KIND: {', '.join(_SWEEPS)}. sweep flags, defaults (--rival BID:GAS repeats):",
          *flags, "sweep equilibrium's b*/v depends on the unit of --v (see README).", sep="\n")
    raise SystemExit(0)


def _usage_error(problem: str) -> NoReturn:
    print(_USAGE, f"ofasim: error: {problem}", sep="\n", file=sys.stderr)
    raise SystemExit(2)


def _read_argv(argv: Sequence[str]) -> SimpleNamespace:
    """The namespace of a command line, read as the module docstring says;
    ``-h``/``--help`` exits 0 after the help, a usage error exits 2."""
    command, *rest = argv or [""]
    known = command in ("settle", "simulate", "sweep")
    if command in ("-h", "--help") or known and rest[:1] in (["-h"], ["--help"]):
        _help()
    sweep = command == "sweep"
    if not known or not rest or sweep and rest[0] not in _SWEEPS:
        got = " ".join(argv[:2]) or "nothing"
        _usage_error(f"expected settle FILE, simulate FILE or sweep {'|'.join(_SWEEPS)}, got {got}")
    if sweep:
        fields, options = {"command": command, "kind": rest[0], **_SWEEP_DEFAULTS}, _SWEEP_OPTIONS
    else:
        fields, options = {"command": command, "file": rest[0]}, {}
    tokens, unknown = iter(rest[1:]), []
    for token in tokens:
        if token in ("-h", "--help"):
            _help()
        flag, equals, text = token.partition("=")
        if flag not in options:
            unknown.append(token)
            continue
        try:
            text = text if equals else next(tokens)
            value = options[flag][0](text)
        except StopIteration:
            _usage_error(f"{flag} needs a value")
        except ValueError:
            _usage_error(f"{flag}: invalid {options[flag][0].__name__} value: {text!r}")
        name = flag[2:].replace("-", "_")
        fields[name] = (fields[name] or []) + [value] if flag == "--rival" else value
    if unknown:
        _usage_error(f"unrecognized arguments: {' '.join(unknown)}")
    return SimpleNamespace(**fields)


def main(argv: Sequence[str] | None = None) -> int:
    args = _read_argv(sys.argv[1:] if argv is None else argv)
    try:
        # looked up by name on each call, so a wrapper set on this module is used
        return globals()[f"cmd_{args.command}"](args)
    except (ScenarioError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> int:
    """``main`` as the ``ofasim`` program: a stdout closed by its reader ends
    in exit code 1 and no traceback, as in Python's note on SIGPIPE."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:  # to devnull, so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(run())
