"""Command-line front end.

Subcommands:
  - ``settle <file>``: settle a scenario file, print the accounting as JSON.
  - ``sweep <kind> [--out FILE]``: emit a figure-ready CSV for
    ``censorship``, ``throughput`` or ``equilibrium``.
  - ``simulate <file> [--jobs N]``: run a Monte-Carlo / timeline config,
    print the report as JSON.

Scenario files are JSON with a versioned top-level ``"schema"`` field
(``settle/1``, ``simulate/1``). Validation is strict: unknown fields are
rejected at every nesting level, currency must be decimal strings (floats are
refused — binary floats would silently break exact accounting), gas and
counts must be integers. Output currency is serialized as decimal strings.

Exit codes: 0 on success, 1 on scenario or validation errors (with a
diagnostic on stderr and no partial stdout output), 2 on usage errors.
``--jobs`` changes concurrency only; reports are bit-identical at any value.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction
from typing import Any, Mapping, Sequence

from .auction import Behavior, GasSchedule, SolverOperation, admit_operations
from .censorship import CensorshipScenario, resistance_sweep
from .equilibrium import DiscreteTimeGame, optimal_bid_details
from .money import format_amount, parse_amount
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


def _expect_int(value: Any, context: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{context}: expected an integer")
    if minimum is not None and value < minimum:
        raise ScenarioError(f"{context}: must be >= {minimum}")
    return value


def _expect_number(value: Any, context: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{context}: expected a number")
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


def _behavior(value: Any, context: str) -> Behavior:
    name = _expect_str(value, context)
    try:
        return Behavior(name)
    except ValueError as exc:
        raise ScenarioError(
            f"{context}: behavior must be 'succeed' or 'revert'"
        ) from exc


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path} is not valid JSON: {exc}") from exc


def _parse_schedule(data: Any, context: str) -> GasSchedule:
    obj = _expect_object(data, context)
    _check_keys(
        obj, {"tx_gas_limit", "user_gas_consumed"}, {"gas_price"}, context
    )
    try:
        return GasSchedule(
            tx_gas_limit=_expect_int(obj["tx_gas_limit"], f"{context}.tx_gas_limit"),
            user_gas_consumed=_expect_int(
                obj["user_gas_consumed"], f"{context}.user_gas_consumed"
            ),
            gas_price=_currency(obj.get("gas_price", 0), f"{context}.gas_price"),
        )
    except ValueError as exc:
        raise ScenarioError(f"{context}: {exc}") from exc


def _parse_solver_op(data: Any, context: str) -> SolverOperation:
    obj = _expect_object(data, context)
    _check_keys(
        obj,
        {"solver_id", "bid", "gas_reserved"},
        {"gas_used", "behavior"},
        context,
    )
    gas_reserved = _expect_int(obj["gas_reserved"], f"{context}.gas_reserved", 1)
    try:
        return SolverOperation(
            solver_id=_expect_str(obj["solver_id"], f"{context}.solver_id"),
            bid=_currency(obj["bid"], f"{context}.bid"),
            gas_reserved=gas_reserved,
            gas_used=_expect_int(
                obj.get("gas_used", gas_reserved), f"{context}.gas_used", 0
            ),
            behavior=_behavior(obj.get("behavior", "revert"), f"{context}.behavior"),
        )
    except ValueError as exc:
        raise ScenarioError(f"{context}: {exc}") from exc


def _parse_private_values(data: Any, context: str) -> dict[str, Fraction]:
    obj = _expect_object(data, context)
    return {
        _expect_str(key, f"{context} key"): _currency(value, f"{context}.{key}")
        for key, value in obj.items()
    }


# ---------------------------------------------------------------------------
# settle


def cmd_settle(args: argparse.Namespace) -> int:
    data = _expect_object(_load_json(args.file), "scenario")
    _check_keys(
        data, {"schema", "schedule", "solver_ops"}, {"private_values"}, "scenario"
    )
    if data["schema"] != "settle/1":
        raise ScenarioError(
            f"scenario.schema: expected 'settle/1', got {data['schema']!r}"
        )
    schedule = _parse_schedule(data["schedule"], "scenario.schedule")
    ops_data = data["solver_ops"]
    if not isinstance(ops_data, list):
        raise ScenarioError("scenario.solver_ops: expected an array")
    candidates = [
        _parse_solver_op(item, f"scenario.solver_ops[{index}]")
        for index, item in enumerate(ops_data)
    ]
    values = _parse_private_values(
        data.get("private_values", {}), "scenario.private_values"
    )
    try:
        tx = admit_operations(candidates, schedule, values)
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


def _open_out(path: str | None):
    if path is None:
        return sys.stdout
    return open(path, "w", encoding="utf-8", newline="")


def _sweep_censorship(args: argparse.Namespace, out) -> None:
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
    template = CensorshipScenario(
        gamma=max(gammas),
        gas_price=prices[0],
        rival_ops=tuple(rivals),
        attacker_value=parse_amount(args.attacker_value),
    )
    writer = csv.writer(out)
    writer.writerow(["gamma", "gas_price", "resistance"])
    for gamma, price, value in resistance_sweep(gammas, prices, template):
        writer.writerow([gamma, format_amount(price), format_amount(value)])


def _sweep_throughput(args: argparse.Namespace, out) -> None:
    model = ThroughputSweep(
        gammas=tuple(_comma_ints(args.gammas, "--gammas")),
        gas_per_op=args.gas_per_op,
        bid_high=parse_amount(args.bid_high),
        bid_low=parse_amount(args.bid_low),
        q=args.q,
    )
    config = SimConfig(trials=args.trials, seed=args.seed, model=model)
    report = run_simulation(config, jobs=args.jobs)
    writer = csv.writer(out)
    writer.writerow(
        ["gamma", "ops", "mean_failure_cost", "std_error", "success_probability"]
    )
    for row in report["rows"]:
        writer.writerow(
            [
                row["gamma"],
                row["ops"],
                f"{row['mean_failure_cost']['mean']:.12g}",
                f"{row['mean_failure_cost']['std_error']:.12g}",
                f"{row['success_probability']['mean']:.12g}",
            ]
        )


def _sweep_equilibrium(args: argparse.Namespace, out) -> None:
    ns = _comma_ints(args.n, "--n")
    sigmas = []
    sigma = args.sigma_min
    while sigma <= args.sigma_max + 1e-9:
        sigmas.append(round(sigma, 10))
        sigma += args.sigma_step
    writer = csv.writer(out)
    writer.writerow(["n", "sigma", "v", "b_star", "b_star_over_v"])
    for n in ns:
        for sigma in sigmas:
            result = optimal_bid_details(DiscreteTimeGame(n=n, v=args.v, sigma=sigma))
            if not result.interior:
                print(
                    f"warning: no interior optimum at n={n}, sigma={sigma}; "
                    f"reporting the bracket argmax {result.bid:.6g} "
                    f"(utility is monotone over [{result.lower:.6g}, "
                    f"{result.upper:.6g}])",
                    file=sys.stderr,
                )
            writer.writerow(
                [n, sigma, args.v, f"{result.bid:.12g}", f"{result.bid / args.v:.12g}"]
            )


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.kind == "equilibrium" and not args.sigma_step > 0:
        raise ScenarioError("--sigma-step must be positive")
    out = _open_out(args.out)
    try:
        if args.kind == "censorship":
            _sweep_censorship(args, out)
        elif args.kind == "throughput":
            _sweep_throughput(args, out)
        else:
            _sweep_equilibrium(args, out)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


# ---------------------------------------------------------------------------
# simulate


def _parse_model(data: Any) -> Any:
    obj = _expect_object(data, "config.model")
    kind = _expect_str(obj.get("kind", ""), "config.model.kind")
    context = "config.model"
    if kind == "iid_failure":
        _check_keys(
            obj,
            {"kind", "n", "q", "v", "bids"},
            {"gas_per_op", "gas_price"},
            context,
        )
        bids = obj["bids"]
        if not isinstance(bids, list):
            raise ScenarioError(f"{context}.bids: expected an array")
        try:
            return IidFailure(
                n=_expect_int(obj["n"], f"{context}.n", 1),
                q=_expect_number(obj["q"], f"{context}.q"),
                v=_currency(obj["v"], f"{context}.v"),
                bids=tuple(
                    _currency(bid, f"{context}.bids[{index}]")
                    for index, bid in enumerate(bids)
                ),
                gas_per_op=_expect_int(
                    obj.get("gas_per_op", 100_000), f"{context}.gas_per_op", 1
                ),
                gas_price=_currency(obj.get("gas_price", 0), f"{context}.gas_price"),
            )
        except ValueError as exc:
            raise ScenarioError(f"{context}: {exc}") from exc
    if kind == "normal_valuation":
        _check_keys(
            obj,
            {"kind", "n", "v", "sigma", "bids"},
            {"gas_per_op", "gas_price"},
            context,
        )
        bids = obj["bids"]
        if not isinstance(bids, list):
            raise ScenarioError(f"{context}.bids: expected an array")
        try:
            return NormalValuation(
                n=_expect_int(obj["n"], f"{context}.n", 1),
                v=float(_currency(obj["v"], f"{context}.v")),
                sigma=_expect_number(obj["sigma"], f"{context}.sigma"),
                bids=tuple(
                    _currency(bid, f"{context}.bids[{index}]")
                    for index, bid in enumerate(bids)
                ),
                gas_per_op=_expect_int(
                    obj.get("gas_per_op", 100_000), f"{context}.gas_per_op", 1
                ),
                gas_price=_currency(obj.get("gas_price", 0), f"{context}.gas_price"),
            )
        except ValueError as exc:
            raise ScenarioError(f"{context}: {exc}") from exc
    if kind == "throughput_sweep":
        _check_keys(
            obj,
            {"kind", "gammas"},
            {"gas_per_op", "bid_high", "bid_low", "q"},
            context,
        )
        gammas = obj["gammas"]
        if not isinstance(gammas, list):
            raise ScenarioError(f"{context}.gammas: expected an array")
        try:
            return ThroughputSweep(
                gammas=tuple(
                    _expect_int(g, f"{context}.gammas[{index}]", 1)
                    for index, g in enumerate(gammas)
                ),
                gas_per_op=_expect_int(
                    obj.get("gas_per_op", 100_000), f"{context}.gas_per_op", 1
                ),
                bid_high=_currency(obj.get("bid_high", "100"), f"{context}.bid_high"),
                bid_low=_currency(obj.get("bid_low", "50"), f"{context}.bid_low"),
                q=_expect_number(obj.get("q", 0.5), f"{context}.q"),
            )
        except ValueError as exc:
            raise ScenarioError(f"{context}: {exc}") from exc
    if kind == "spoof_attack":
        _check_keys(
            obj,
            {"kind", "gamma", "rivals"},
            {"gas_price", "attacker_value", "bid_margin", "attacker_gas", "attacker_behavior"},
            context,
        )
        rivals_data = obj["rivals"]
        if not isinstance(rivals_data, list):
            raise ScenarioError(f"{context}.rivals: expected an array")
        rivals = []
        for index, rival in enumerate(rivals_data):
            rival_obj = _expect_object(rival, f"{context}.rivals[{index}]")
            _check_keys(
                rival_obj, {"bid", "gas_reserved"}, set(), f"{context}.rivals[{index}]"
            )
            rivals.append(
                (
                    _currency(rival_obj["bid"], f"{context}.rivals[{index}].bid"),
                    _expect_int(
                        rival_obj["gas_reserved"],
                        f"{context}.rivals[{index}].gas_reserved",
                        1,
                    ),
                )
            )
        try:
            scenario = CensorshipScenario(
                gamma=_expect_int(obj["gamma"], f"{context}.gamma", 1),
                gas_price=_currency(obj.get("gas_price", 0), f"{context}.gas_price"),
                rival_ops=tuple(rivals),
                attacker_value=_currency(
                    obj.get("attacker_value", 0), f"{context}.attacker_value"
                ),
            )
            attacker_gas = obj.get("attacker_gas")
            return SpoofAttack(
                scenario=scenario,
                bid_margin=_currency(obj.get("bid_margin", 1), f"{context}.bid_margin"),
                attacker_gas=(
                    None
                    if attacker_gas is None
                    else _expect_int(attacker_gas, f"{context}.attacker_gas", 1)
                ),
                attacker_behavior=_behavior(
                    obj.get("attacker_behavior", "revert"),
                    f"{context}.attacker_behavior",
                ),
            )
        except ValueError as exc:
            raise ScenarioError(f"{context}: {exc}") from exc
    if kind == "timeline":
        _check_keys(
            obj,
            {"kind"},
            {
                "user_latency_ms",
                "auction_duration_ms",
                "execution_delay_ms",
                "schedule",
                "solver_ops",
                "escrow_snapshot",
            },
            context,
        )
        try:
            timeline_config = TimelineConfig(
                user_latency_ms=_expect_int(
                    obj.get("user_latency_ms", 50), f"{context}.user_latency_ms", 0
                ),
                auction_duration_ms=_expect_int(
                    obj.get("auction_duration_ms", 300),
                    f"{context}.auction_duration_ms",
                    0,
                ),
                execution_delay_ms=_expect_int(
                    obj.get("execution_delay_ms", 50),
                    f"{context}.execution_delay_ms",
                    0,
                ),
            )
            schedule = None
            if "schedule" in obj:
                schedule = _parse_schedule(obj["schedule"], f"{context}.schedule")
            candidates = []
            for index, item in enumerate(obj.get("solver_ops", [])):
                candidates.append(
                    _parse_solver_op(item, f"{context}.solver_ops[{index}]")
                )
            snapshot = None
            if "escrow_snapshot" in obj:
                snapshot = {
                    key: _currency(value, f"{context}.escrow_snapshot.{key}")
                    for key, value in _expect_object(
                        obj["escrow_snapshot"], f"{context}.escrow_snapshot"
                    ).items()
                }
            return Timeline(
                config=timeline_config,
                schedule=schedule,
                candidates=tuple(candidates),
                escrow_snapshot=snapshot,
            )
        except ValueError as exc:
            raise ScenarioError(f"{context}: {exc}") from exc
    raise ScenarioError(
        f"{context}.kind: unknown model kind {kind!r} (expected iid_failure, "
        "normal_valuation, throughput_sweep, spoof_attack or timeline)"
    )


def cmd_simulate(args: argparse.Namespace) -> int:
    data = _expect_object(_load_json(args.file), "config")
    _check_keys(data, {"schema", "seed", "model"}, {"trials"}, "config")
    if data["schema"] != "simulate/1":
        raise ScenarioError(
            f"config.schema: expected 'simulate/1', got {data['schema']!r}"
        )
    model = _parse_model(data["model"])
    try:
        config = SimConfig(
            trials=_expect_int(data.get("trials", 1), "config.trials", 1),
            seed=_expect_int(data["seed"], "config.seed", 0),
            model=model,
        )
        report = run_simulation(config, jobs=args.jobs)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    print(json.dumps(report, indent=2))
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
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
    p_settle.set_defaults(func=cmd_settle)

    p_sweep = sub.add_parser("sweep", help="emit a parameter-sweep CSV")
    p_sweep.add_argument(
        "kind", choices=["censorship", "throughput", "equilibrium"]
    )
    p_sweep.add_argument("--out", help="write CSV here instead of stdout")
    p_sweep.add_argument("--jobs", type=int, default=1)
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
    p_sweep.set_defaults(func=cmd_sweep)

    p_sim = sub.add_parser("simulate", help="run a simulation config")
    p_sim.add_argument("file", help="JSON config (schema simulate/1)")
    p_sim.add_argument("--jobs", type=int, default=1)
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "jobs", 1) < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
