"""cli_batch: in-process ``ofasim.cli.main(argv)`` calls over generated files.

One round is 201 commands in a fixed make-up: settle scenarios with 2-500
candidates and private values, all three sweep kinds, small simulate configs
(spoof_attack, timeline, iid, normal), six malformed inputs that must be
rejected, and three inputs that hit known faults:

- ``sweep equilibrium --sigma-min 0`` writes the CSV header before exiting 1;
- a ``normal_valuation`` config with ``"sigma": NaN`` exits 0;
- ``sweep equilibrium`` at n=3, v=10.553, sigma=0.056 reports b*=10.4997,
  a local maximum whose utility is below that of the bracket's lower edge.

The first two must exit 1 with one stderr line and nothing on stdout; the
third must pass the same argmax check as every other equilibrium row. All
three count as failed in every round until the program is fixed. Their inputs
do not depend on the seed. (``--sigma-step 0`` is never used: it loops
forever.)
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import random
import time
from fractions import Fraction

import model

KNOWN_FAULTS = ("sigma_min_zero", "nan_sigma", "small_sigma")
REJECTED = ("malformed", "sigma_min_zero", "nan_sigma")  # inputs the CLI must reject
MIX = {  # commands per round by kind
    "settle": 96, "censorship": 20, "throughput": 10, "equilibrium": 10,
    "spoof": 16, "timeline": 16, "iid": 12, "normal": 12, "malformed": 6,
}
SIM_TRIALS = 2000


def _dec(value: Fraction) -> str:
    """Exact decimal string of a Fraction whose denominator divides 10**18."""
    units = value * 10**18
    if units.denominator != 1:
        raise ValueError(f"{value} has no exact 18-digit decimal form")
    sign = "-" if units < 0 else ""
    whole, frac = divmod(abs(units.numerator), 10**18)
    return f"{sign}{whole}.{frac:018d}".rstrip("0").rstrip(".")



def _settle_sizes(rng: random.Random, count: int) -> list[int]:
    """Heavy-tailed candidate counts in [2, 500] at the quantile midpoints, in
    seeded order (the same multiset for every seed)."""
    sizes = [min(500, max(2, int(2.0 * ((i + 0.5) / count) ** (-1.0 / 0.95)))) for i in range(count)]
    rng.shuffle(sizes)
    return sizes


def _ops(rng: random.Random, count: int, gamma: int) -> list[tuple]:
    ops = []
    for i in range(count):
        gas = max(1, int(gamma * rng.uniform(0.03, 0.2)))
        ok = rng.random() < 0.5
        used = int(gas * rng.uniform(0.3, 1.0))
        ops.append((f"s{i:03d}", model.random_amount(rng, 10, 200), gas, used, ok))
    for i in range(count // 8):  # solvers with a second op
        sid = ops[rng.randrange(count)][0]
        gas = max(1, int(gamma * rng.uniform(0.03, 0.2)))
        ops.append((sid, model.random_amount(rng, 10, 200), gas, gas, rng.random() < 0.5))
    rng.shuffle(ops)
    return ops


def _op_json(op: tuple) -> dict:
    sid, bid, gas, used, ok = op
    return {"solver_id": sid, "bid": _dec(bid), "gas_reserved": gas, "gas_used": used,
            "behavior": "succeed" if ok else "revert"}


def _schedule(rng: random.Random) -> tuple[int, int, Fraction]:
    return rng.randint(500_000, 3_000_000), rng.randint(0, 200_000), Fraction(rng.choice((0, 1, 5)), 1_000_000)


class Command:
    """One CLI call: argv, what the benchmark knows about its input, and the
    captured result of its first round."""

    def __init__(self, kind: str, argv: list[str], spec: dict) -> None:
        self.kind, self.argv, self.spec = kind, argv, spec
        self.outcome = None  # (exit code, stdout, stderr) of round one


class Workload:
    def __init__(self, seed: int, ofasim, workdir: str) -> None:
        self.cli = ofasim.cli
        self.workdir = workdir
        rng = random.Random(seed)
        self.files = 0
        builders = {
            "censorship": self._censorship, "throughput": self._throughput,
            "equilibrium": self._equilibrium, "spoof": self._spoof, "timeline": self._timeline,
            "iid": self._iid, "normal": self._normal, "malformed": self._malformed,
        }
        # sizes (candidates, grid points, budgets, ...) follow the command's
        # index, so every seed gives a round the same amount of work; the
        # seed draws the values
        self.commands = [self._settle(rng, size) for size in _settle_sizes(rng, MIX["settle"])]
        for kind, count in MIX.items():
            if kind != "settle":
                self.commands += [builders[kind](rng, i) for i in range(count)]
        self.commands += self._known_faults()
        rng.shuffle(self.commands)
        self.rounds: list[list[bool]] = []

    def _write(self, payload) -> str:
        path = os.path.join(self.workdir, f"input-{self.files:04d}.json")
        self.files += 1
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(payload if isinstance(payload, str) else json.dumps(payload))
        return path

    # -- command builders -------------------------------------------------

    def _settle(self, rng: random.Random, count: int) -> Command:
        gamma, user_gas, price = _schedule(rng)
        ops = _ops(rng, count, gamma)
        values = {op[0]: op[1] * Fraction(rng.randint(100, 140), 100) for op in ops}
        scenario = {
            "schema": "settle/1",
            "schedule": {"tx_gas_limit": gamma + user_gas, "user_gas_consumed": user_gas,
                         "gas_price": _dec(price)},
            "solver_ops": [_op_json(op) for op in ops],
            "private_values": {sid: _dec(v) for sid, v in values.items()},
        }
        spec = {"gamma": gamma, "user_gas": user_gas, "price": price, "ops": ops, "values": values}
        return Command("settle", ["settle", self._write(scenario)], spec)

    def _censorship(self, rng: random.Random, i: int) -> Command:
        rivals = [(model.random_amount(rng, 10, 200), rng.randint(50_000, 400_000)) for _ in range(1 + i % 4)]
        gamma_min = rng.randint(500_000, 2_000_000)
        gamma_max = gamma_min + rng.randint(0, 20_000_000)
        points = 5 + 35 * i // (MIX["censorship"] - 1)
        prices = [Fraction(rng.randint(0, 2000), 10**9) for _ in range(1 + i % 3)]
        value = model.random_amount(rng, 0, 500)
        argv = ["sweep", "censorship", "--gamma-min", str(gamma_min), "--gamma-max", str(gamma_max),
                "--gamma-points", str(points), "--gas-prices", ",".join(_dec(p) for p in prices),
                "--attacker-value", _dec(value)]
        for bid, gas in rivals:
            argv += ["--rival", f"{_dec(bid)}:{gas}"]
        spec = {"rivals": rivals, "gamma_min": gamma_min, "gamma_max": gamma_max, "points": points,
                "prices": prices, "value": value}
        return Command("censorship", argv, spec)

    def _throughput(self, rng: random.Random, i: int) -> Command:
        gas_per_op = rng.choice((50_000, 100_000, 200_000))
        gammas = [k * gas_per_op for k in range(4 + 3 * i, 40, 8)]  # ops per budget
        high = model.random_amount(rng, 80, 150)
        low = model.random_amount(rng, 10, 80)
        q = round(rng.uniform(0.2, 0.8), 4)
        argv = ["sweep", "throughput", "--gammas", ",".join(map(str, gammas)),
                "--gas-per-op", str(gas_per_op), "--bid-high", _dec(high), "--bid-low", _dec(low),
                "--q", repr(q), "--trials", str(SIM_TRIALS), "--seed", str(rng.randrange(2**31))]
        spec = {"gammas": gammas, "gas_per_op": gas_per_op, "high": high, "low": low, "q": q}
        return Command("throughput", argv, spec)

    def _equilibrium(self, rng: random.Random, i: int) -> Command:
        # sigma/v stays >= 0.1 on small prizes: below that the search can
        # return a local maximum lower than the bracket edge on some seeds;
        # one fixed such case runs among the known faults instead
        v = rng.choice((round(rng.uniform(1, 20), 3), 3500.0))
        low, high = (0.5, 12.0) if v == 3500.0 else (0.1 * v, 0.6 * v)
        sigma_min = round(rng.uniform(low, (low + high) / 2), 3)
        step = round(rng.uniform(0.05, (high - sigma_min) / 4), 3)
        sigma_max = round(sigma_min + step * (1 + i % 4), 6)
        ns = sorted(rng.sample((2, 3, 5, 10, 25), 1 + i % 3))
        argv = ["sweep", "equilibrium", "--v", repr(v), "--sigma-min", repr(sigma_min),
                "--sigma-max", repr(sigma_max), "--sigma-step", repr(step), "--n", ",".join(map(str, ns))]
        return Command("equilibrium", argv, {"v": v, "ns": ns})

    def _spoof(self, rng: random.Random, i: int) -> Command:
        gamma = rng.randint(1_000_000, 5_000_000)
        rivals = [(model.random_amount(rng, 10, 200), rng.randint(50_000, 400_000)) for _ in range(1 + i % 6)]
        price = Fraction(rng.randint(0, 20), 10**6)
        value = model.random_amount(rng, 0, 1000)
        margin = model.random_amount(rng, -5, 20)
        attacker_gas = rng.choice((None, rng.randint(100_000, gamma)))
        behavior = rng.choice(("revert", "succeed"))
        m = {"kind": "spoof_attack", "gamma": gamma,
             "rivals": [{"bid": _dec(b), "gas_reserved": g} for b, g in rivals],
             "gas_price": _dec(price), "attacker_value": _dec(value), "bid_margin": _dec(margin),
             "attacker_behavior": behavior}
        if attacker_gas is not None:
            m["attacker_gas"] = attacker_gas
        path = self._write({"schema": "simulate/1", "seed": 1, "model": m})
        spec = {"gamma": gamma, "rivals": rivals, "price": price, "value": value, "margin": margin,
                "attacker_gas": attacker_gas if attacker_gas is not None else gamma,
                "behavior": behavior == "succeed"}
        return Command("spoof", ["simulate", path], spec)

    def _timeline(self, rng: random.Random, i: int) -> Command:
        gamma, user_gas, price = _schedule(rng)
        ops = [op[:4] + (True,) for op in _ops(rng, 2 + 2 * i, gamma)]
        snapshot = {op[0]: model.random_amount(rng, 0, 60) for op in ops}
        latency = {"user_latency_ms": rng.randint(0, 200), "auction_duration_ms": rng.randint(0, 1000),
                   "execution_delay_ms": rng.randint(0, 200)}
        m = {"kind": "timeline", **latency,
             "schedule": {"tx_gas_limit": gamma + user_gas, "user_gas_consumed": user_gas,
                          "gas_price": _dec(price)},
             "solver_ops": [_op_json(op) for op in ops],
             "escrow_snapshot": {sid: _dec(v) for sid, v in snapshot.items()}}
        path = self._write({"schema": "simulate/1", "seed": 1, "model": m})
        spec = {"gamma": gamma, "price": price, "ops": ops, "snapshot": snapshot, **latency}
        return Command("timeline", ["simulate", path], spec)

    def _iid(self, rng: random.Random, i: int) -> Command:
        n = 2 + i % 7
        bids = [Fraction(c, 100) for c in rng.sample(range(1000, 10000), n)]
        q = round(rng.uniform(0.2, 0.8), 4)
        price = Fraction(rng.randint(0, 10), 10**6)
        m = {"kind": "iid_failure", "n": n, "q": q, "v": "100", "bids": [_dec(b) for b in bids],
             "gas_price": _dec(price)}
        path = self._write({"schema": "simulate/1", "seed": rng.randrange(2**31), "trials": SIM_TRIALS, "model": m})
        return Command("iid", ["simulate", path], {"bids": bids, "q": q, "price": price})

    def _normal(self, rng: random.Random, i: int) -> Command:
        n = 2 + i % 7
        bids = [Fraction(c, 100) for c in rng.sample(range(9000, 11000), n)]
        sigma = round(rng.uniform(2.0, 15.0), 3)
        m = {"kind": "normal_valuation", "n": n, "v": "100", "sigma": sigma, "bids": [_dec(b) for b in bids]}
        path = self._write({"schema": "simulate/1", "seed": rng.randrange(2**31), "trials": SIM_TRIALS, "model": m})
        return Command("normal", ["simulate", path], {"bids": bids, "sigma": sigma})

    def _malformed(self, rng: random.Random, which: int) -> Command:
        ok_op = {"solver_id": "a", "bid": _dec(model.random_amount(rng, 1, 100)), "gas_reserved": 100_000}
        schedule = {"tx_gas_limit": 1_100_000, "user_gas_consumed": 100_000}
        cases = [
            lambda: ["settle", self._write({"schema": "settle/1", "schedule": schedule,
                                             "solver_ops": [dict(ok_op, bid=rng.uniform(1, 100))]})],
            lambda: ["settle", self._write({"schema": "settle/1", "schedule": schedule,
                                             "solver_ops": [ok_op], "extra": 1})],
            lambda: ["simulate", self._write({"schema": "simulate/2", "seed": 1, "model": {"kind": "timeline"}})],
            lambda: ["sweep", "censorship", "--gamma-points", "0"],
            lambda: ["settle", self._write(json.dumps({"schema": "settle/1", "schedule": schedule})[:-7])],
            lambda: ["simulate", self._write({"schema": "simulate/1", "seed": 1, "model": {
                "kind": "iid_failure", "n": 2, "q": 1 + rng.random(), "v": "10", "bids": ["5", "4"]}})],
        ]
        return Command("malformed", cases[which % len(cases)](), {})

    def _known_faults(self) -> list[Command]:
        nan_config = ('{"schema": "simulate/1", "seed": 1, "trials": 1000, "model": {"kind": '
                      '"normal_valuation", "n": 3, "v": "100", "sigma": NaN, "bids": ["99", "98", "97"]}}')
        return [
            Command("sigma_min_zero", ["sweep", "equilibrium", "--v", "10", "--sigma-min", "0",
                                       "--sigma-max", "1", "--sigma-step", "0.5", "--n", "2"], {}),
            Command("nan_sigma", ["simulate", self._write(nan_config)], {}),
            Command("small_sigma", ["sweep", "equilibrium", "--v", "10.553", "--sigma-min", "0.056",
                                    "--sigma-max", "0.056", "--sigma-step", "0.01", "--n", "3"],
                    {"v": 10.553, "ns": [3]}),
        ]

    # -- running ----------------------------------------------------------

    def run_round(self, tick) -> tuple[list[int], float]:
        main = self.cli.main
        first = not self.rounds
        latencies, same = [], []
        for command in self.commands:
            tick()
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter_ns()
                try:
                    code = main(command.argv)
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:  # a crash fails this command, not the run
                    code = None
                    err.write(f"{type(exc).__name__}: {exc}\n")
                latencies.append(time.perf_counter_ns() - start)
            outcome = (code, out.getvalue(), err.getvalue())
            if first:
                command.outcome = outcome
            same.append(outcome == command.outcome)
        self.rounds.append(same)
        return latencies, float(len(self.commands))

    def check(self) -> list[tuple[str, bool]]:
        first = [self._verify(c) for c in self.commands]
        return [
            (c.kind, f and s)
            for same in self.rounds
            for c, f, s in zip(self.commands, first, same)
        ]

    # -- correctness ------------------------------------------------------

    def _verify(self, command: Command) -> bool:
        code, out, err = command.outcome
        if command.kind in REJECTED:
            return code == 1 and out == "" and err.count("\n") == 1 and err.startswith("error: ")
        if code != 0:
            return False
        try:
            return getattr(self, f"_verify_{command.kind}")(command.spec, out)
        except (KeyError, ValueError, IndexError, TypeError, ZeroDivisionError):
            return False

    @staticmethod
    def _verify_settle(spec: dict, out: str) -> bool:
        report = json.loads(out)
        admitted = model.admit(spec["ops"], spec["gamma"])
        exp = model.settle(admitted, spec["gamma"], spec["price"], spec["user_gas"], spec["values"])
        floor = model.guaranteed_minimum(admitted, spec["gamma"])
        money = lambda got, want: got.keys() == want.keys() and all(  # noqa: E731
            model.amount_matches(got[k], want[k]) for k in want)
        return (
            report["admitted"] == [op[0] for op in admitted]
            and report["winner"] == exp["winner"]
            and report["executed"] == [list(e) for e in exp["executed"]]
            and money(report["failure_costs"], exp["failure_costs"])
            and money(report["solver_payoffs"], exp["solver_payoffs"])
            and model.amount_matches(report["beneficiary_payout"], exp["beneficiary_payout"])
            and model.amount_matches(report["guaranteed_minimum"], floor)
            and exp["beneficiary_payout"] >= floor
            and report["total_gas_used"] == exp["total_gas_used"]
            and report["reverted"] == exp["reverted"]
        )

    @staticmethod
    def _verify_censorship(spec: dict, out: str) -> bool:
        rows = list(csv.reader(io.StringIO(out)))
        points, lo, hi = spec["points"], spec["gamma_min"], spec["gamma_max"]
        gammas = [lo] if points == 1 else [lo + round(Fraction((hi - lo) * i, points - 1)) for i in range(points)]
        best = max(b for b, _ in spec["rivals"])
        min_gas = min(g for _, g in spec["rivals"])
        want = [(g, p, (g - min_gas) * (p + best / Fraction(g)) - spec["value"]) for g in gammas for p in spec["prices"]]
        return rows[0] == ["gamma", "gas_price", "resistance"] and len(rows) == len(want) + 1 and all(
            int(r[0]) == g and model.amount_matches(r[1], p) and model.amount_matches(r[2], res)
            for r, (g, p, res) in zip(rows[1:], want)
        )

    @staticmethod
    def _verify_throughput(spec: dict, out: str) -> bool:
        rows = list(csv.reader(io.StringIO(out)))
        want = model.throughput_rows(spec["gammas"], spec["gas_per_op"], spec["high"], spec["low"], spec["q"])

        def stat(mean, se):
            return {"mean": float(mean), "std_error": float(se), "trials": SIM_TRIALS}

        return len(rows) == len(want) + 1 and all(
            int(r[0]) == g and int(r[1]) == count
            and cost.accepts(stat(r[2], r[3]), SIM_TRIALS)
            # the CSV carries no standard error for the success probability
            and success.accepts(stat(r[4], 0.0), SIM_TRIALS)
            for r, g, (count, _, cost, success) in zip(rows[1:], spec["gammas"], want)
        )

    @staticmethod
    def _verify_equilibrium(spec: dict, out: str) -> bool:
        rows = list(csv.reader(io.StringIO(out)))[1:]
        v = spec["v"]
        return len(rows) > 0 and all(
            int(r[0]) in spec["ns"] and float(r[2]) == v
            and abs(float(r[4]) - float(r[3]) / v) <= 1e-9 * abs(float(r[4])) + 1e-12
            and model.bid_is_argmax(int(r[0]), v, float(r[1]), float(r[3]))
            for r in rows
        )

    _verify_small_sigma = _verify_equilibrium

    @staticmethod
    def _verify_spoof(spec: dict, out: str) -> bool:
        report = json.loads(out)
        gamma, price = spec["gamma"], spec["price"]
        rivals = [(f"r{i:03d}", b, g, g, True) for i, (b, g) in enumerate(spec["rivals"])]
        best = max(b for b, _ in spec["rivals"])
        min_gas = min(g for _, g in spec["rivals"])
        attacker = ("attacker", best + spec["margin"], spec["attacker_gas"], spec["attacker_gas"], spec["behavior"])
        base = model.admit(rivals, gamma)
        attack = model.admit(rivals + [attacker], gamma)
        base_s = model.settle(base, gamma, price, 0, {})
        attack_s = model.settle(attack, gamma, price, 0, {})
        admitted = [op[0] for op in attack]
        cost = attack_s["failure_costs"].get("attacker", Fraction(0)) + attack_s["gas_charges"].get("attacker", Fraction(0))
        if attack_s["winner"] == "attacker":
            cost += attacker[1]
        resistance = (gamma - min_gas) * (price + best / Fraction(gamma)) - spec["value"]
        return (
            model.amount_matches(report["attacker_bid"], attacker[1])
            and report["attacker_gas"] == spec["attacker_gas"]
            and report["attacker_admitted"] == ("attacker" in admitted)
            and report["rivals_admitted"] == [s for s in admitted if s != "attacker"]
            and report["rivals_blocked"] == ("attacker" in admitted and len(admitted) == 1)
            and report["attack_winner"] == attack_s["winner"]
            and model.amount_matches(report["attacker_total_cost"], cost)
            and model.amount_matches(report["beneficiary_with_attack"], attack_s["beneficiary_payout"])
            and model.amount_matches(report["beneficiary_without_attack"], base_s["beneficiary_payout"])
            and model.amount_matches(report["predicted_resistance"], resistance)
        )

    @staticmethod
    def _verify_timeline(spec: dict, out: str) -> bool:
        report = json.loads(out)
        gamma, price = spec["gamma"], spec["price"]
        solvent = [op for op in spec["ops"]
                   if spec["snapshot"][op[0]] >= model.required_escrow(op[1], op[2], gamma, price)]
        floor = model.guaranteed_minimum(model.admit(solvent, gamma), gamma)
        issued = spec["user_latency_ms"] + spec["auction_duration_ms"]
        times = [e["at_ms"] for e in report["events"]]
        last = issued + max(spec["user_latency_ms"], 2 * spec["execution_delay_ms"])
        return (
            report["guarantee_issued_at_ms"] == issued
            and report["guarantee_at_ms"] == issued + spec["user_latency_ms"]
            and model.amount_matches(report["guarantee_value"], floor)
            and report["chain_quiet_between_order_and_guarantee"] is True
            and times == sorted(times)
            and times[-1] == last
            and sum(e["kind"] in ("bid_admitted", "bid_rejected") for e in report["events"]) == len(spec["ops"])
        )

    @staticmethod
    def _verify_iid(spec: dict, out: str) -> bool:
        report = json.loads(out)
        exp = model.iid_expectations(spec["bids"], spec["q"], Fraction(100), 100_000, spec["price"])
        return _stats_match(report, exp, ["total_payoff", "beneficiary", "success_probability"])

    @staticmethod
    def _verify_normal(spec: dict, out: str) -> bool:
        report = json.loads(out)
        exp = model.normal_expectations(spec["bids"], 100.0, spec["sigma"], 100_000, Fraction(0))
        return _stats_match(report, exp, ["total_payoff", "beneficiary", "executed_ops"])


def _stats_match(report: dict, exp: dict, keys: list[str]) -> bool:
    per_solver = list(report["per_solver"].values())
    return (
        len(per_solver) == len(exp["per_solver"])
        and all(e.accepts(s, SIM_TRIALS) for e, s in zip(exp["per_solver"], per_solver))
        and all(exp[k].accepts(report[k], SIM_TRIALS) for k in keys)
    )
