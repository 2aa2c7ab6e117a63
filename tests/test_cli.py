"""End-to-end tests for the ``ofasim`` command-line interface.

Every test drives ``cli.main`` in-process and checks exit codes, stdout
payloads and stderr diagnostics. Error paths must leave stdout empty so the
tool stays safe to pipe.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import enum
import importlib
import io
import json
import os
import random
import resource
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ofasim import cli
from ofasim.auction import GasSchedule, SolverOperation
from ofasim.scenarios import IidFailure, NormalValuation, ThroughputSweep, TimelineConfig


@pytest.fixture(autouse=True)
def reserialized(monkeypatch):
    """Check every report ``settle`` and ``simulate`` print in this module:
    its stdout must equal ``json.dumps(json.loads(out), indent=2) + "\\n"``.
    Returns the reports checked so far in the test."""
    checked = []

    def checking(command):
        def run(args):
            out = io.StringIO()
            try:
                with contextlib.redirect_stdout(out):
                    code = command(args)
            finally:
                sys.stdout.write(out.getvalue())
            text = out.getvalue()
            assert code == 0 and text == json.dumps(json.loads(text), indent=2) + "\n"
            checked.append(text)
            return code

        return run

    for name in ("cmd_settle", "cmd_simulate"):
        monkeypatch.setattr(cli, name, checking(getattr(cli, name)))
    return checked


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def settle_scenario(**overrides):
    scenario = {
        "schema": "settle/1",
        "schedule": {
            "tx_gas_limit": 1_100_000,
            "user_gas_consumed": 100_000,
            "gas_price": "0.00075",
        },
        "solver_ops": [
            {"solver_id": "a", "bid": "100", "gas_reserved": 100_000},
            {
                "solver_id": "b",
                "bid": "80",
                "gas_reserved": 100_000,
                "gas_used": 90_000,
                "behavior": "succeed",
            },
            {
                "solver_id": "c",
                "bid": "60",
                "gas_reserved": 900_000,
                "behavior": "succeed",
            },
        ],
        "private_values": {"b": "120"},
    }
    scenario.update(overrides)
    return scenario


class TestSettle:
    def test_full_accounting_report(self, tmp_path, capsys):
        path = write_json(tmp_path, "scenario.json", settle_scenario())
        assert cli.main(["settle", path]) == 0
        report = json.loads(capsys.readouterr().out)
        # c needs 900k of the 800k left after a and b: admission stops there
        assert report == {
            "admitted": ["a", "b"],
            "winner": "b",
            "executed": [["a", "reverted"], ["b", "succeeded"]],
            "failure_costs": {"a": "2"},
            "solver_payoffs": {"a": "-77", "b": "-102.5"},
            "beneficiary_payout": "82",
            "guaranteed_minimum": "18",
            "total_gas_used": 290_000,
            "reverted": ["a"],
        }

    def test_missing_field_fails_cleanly(self, tmp_path, capsys):
        scenario = settle_scenario()
        del scenario["solver_ops"]
        path = write_json(tmp_path, "scenario.json", scenario)
        assert cli.main(["settle", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "missing field(s) ['solver_ops']" in captured.err

    def test_unknown_field_is_rejected(self, tmp_path, capsys):
        path = write_json(
            tmp_path, "scenario.json", settle_scenario(extra_knob=1)
        )
        assert cli.main(["settle", path]) == 1
        assert "unknown field(s) ['extra_knob']" in capsys.readouterr().err

    def test_float_currency_is_rejected(self, tmp_path, capsys):
        scenario = settle_scenario()
        scenario["solver_ops"][0]["bid"] = 100.0
        path = write_json(tmp_path, "scenario.json", scenario)
        assert cli.main(["settle", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "currency must be a decimal string, not a float" in captured.err

    def test_negative_bid_is_rejected(self, tmp_path, capsys):
        scenario = settle_scenario()
        scenario["solver_ops"][0]["bid"] = "-5"
        path = write_json(tmp_path, "scenario.json", scenario)
        assert cli.main(["settle", path]) == 1
        assert "bid must be non-negative" in capsys.readouterr().err

    def test_wrong_schema_version(self, tmp_path, capsys):
        path = write_json(
            tmp_path, "scenario.json", settle_scenario(schema="settle/2")
        )
        assert cli.main(["settle", path]) == 1
        assert "expected 'settle/1'" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert cli.main(["settle", str(path)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert cli.main(["settle", str(tmp_path / "absent.json")]) == 1
        assert "cannot read" in capsys.readouterr().err


class TestSweepCensorship:
    def test_single_point_matches_hand_computation(self, capsys):
        assert (
            cli.main(
                [
                    "sweep",
                    "censorship",
                    "--gamma-min",
                    "1000000",
                    "--gamma-max",
                    "1000000",
                    "--gamma-points",
                    "1",
                ]
            )
            == 0
        )
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["gamma", "gas_price", "resistance"]
        assert rows[1] == ["1000000", "0.00000075", "90.675"]

    def test_resistance_increases_with_budget(self, capsys):
        assert cli.main(["sweep", "censorship", "--gamma-points", "4"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
        values = [float(row[2]) for row in rows]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_out_writes_a_file(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert (
            cli.main(
                ["sweep", "censorship", "--gamma-points", "2", "--out", str(out)]
            )
            == 0
        )
        assert capsys.readouterr().out == ""
        rows = list(csv.reader(io.StringIO(out.read_text(encoding="utf-8"))))
        assert rows[0] == ["gamma", "gas_price", "resistance"]
        assert len(rows) == 3

    def test_grid_stays_exact_past_float_precision(self, capsys):
        # a float quotient put the last point at 1152921504606847040
        argv = ["--gamma-min", "1000000", "--gamma-max", "1152921504606846979"]
        argv += ["--gamma-points", "2", "--gas-prices", "0"]
        assert cli.main(["sweep", "censorship", *argv]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
        assert [row[0] for row in rows] == ["1000000", "1152921504606846979"]

    @staticmethod
    def _gammas(low, high, points, capsys):
        argv = ["--gamma-min", str(low), "--gamma-max", str(high)]
        argv += ["--gamma-points", str(points), "--gas-prices", "0"]
        assert cli.main(["sweep", "censorship", *argv]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
        return [int(row[0]) for row in rows]

    def test_exact_grid_equals_the_float_grid_below_2_to_the_39(self, capsys):
        # A quotient off a half by at least 1/(2·intervals) cannot round to it as
        # a float while its ulp is below 1/intervals: for every --gamma-points
        # up to the cap, that holds for spans below 2**39.
        rng = random.Random(20)
        cases = [(2**39 - 1, cli.MAX_GRID_POINTS), (2**39 - 1, cli.MAX_GRID_POINTS - 1)]
        cases += [(rng.randrange(2**39), rng.randint(1, 60)) for _ in range(400)]
        cases += [(rng.randrange(2**39), rng.randint(1, cli.MAX_GRID_POINTS)) for _ in range(20)]
        for span, points in cases:
            low = rng.randrange(10**6, 10**7)
            intervals = max(points - 1, 1)
            floats = [low + round(span * index / intervals) for index in range(points)]
            assert self._gammas(low, low + span, points, capsys) == floats, (span, points)

    @pytest.mark.parametrize("points", [2, 3, 7, 10])
    def test_exact_grid_rounds_halves_to_even(self, points, capsys):
        # the low end is even, so each offset keeps the parity of its rounding
        low = 1_000_000
        for span in range(40):
            grid = self._gammas(low, low + span, points, capsys)
            assert grid == [low + round(Fraction(span * i, points - 1)) for i in range(points)]

    def test_bad_rival_spec(self, capsys):
        assert cli.main(["sweep", "censorship", "--rival", "100"]) == 1
        assert "expected BID:GAS" in capsys.readouterr().err

    def test_zero_points_rejected(self, capsys):
        assert cli.main(["sweep", "censorship", "--gamma-points", "0"]) == 1
        assert "--gamma-points" in capsys.readouterr().err


class TestSweepEquilibrium:
    def test_small_prize_has_interior_optimum(self, capsys):
        assert (
            cli.main(
                [
                    "sweep",
                    "equilibrium",
                    "--v",
                    "5",
                    "--sigma-min",
                    "0.01",
                    "--sigma-max",
                    "0.01",
                    "--n",
                    "2",
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = list(csv.reader(io.StringIO(captured.out)))
        assert rows[0] == ["n", "sigma", "v", "b_star", "b_star_over_v"]
        assert len(rows) == 2
        assert float(rows[1][4]) < 1.0

    def test_large_prize_warns_and_reports_bracket_argmax(self, capsys):
        assert (
            cli.main(
                [
                    "sweep",
                    "equilibrium",
                    "--v",
                    "3500",
                    "--sigma-min",
                    "5",
                    "--sigma-max",
                    "5",
                    "--n",
                    "5",
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "warning: no interior optimum at n=5" in captured.err
        rows = list(csv.reader(io.StringIO(captured.out)))
        assert float(rows[1][3]) == pytest.approx(3470.0, abs=1e-6)

    def test_a_one_point_grid_keeps_its_point(self, capsys):
        # sigma_max + 1e-9 rounds to sigma_max at 1e16, so the grid's edge is inclusive
        argv = ["sweep", "equilibrium", "--v", "3500", "--sigma-min", "1e16",
                "--sigma-max", "1e16", "--sigma-step", "4", "--n", "2"]
        assert cli.main(argv) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert [row[:2] for row in rows[1:]] == [["2", "1e+16"]]

    @pytest.mark.parametrize("step", ["0", "-0.5", "nan"])
    def test_non_positive_sigma_step_is_rejected(self, tmp_path, capsys, step):
        # A step that never advances sigma used to loop forever.
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "equilibrium", f"--sigma-step={step}", "--out", str(out)]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --sigma-step must be positive\n"
        assert not out.exists()


class TestSweepThroughput:
    ARGS = [
        "sweep",
        "throughput",
        "--gammas",
        "1000000,2000000",
        "--trials",
        "400",
        "--seed",
        "7",
    ]

    def test_rows_and_monotone_cost(self, capsys):
        assert cli.main(self.ARGS) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == [
            "gamma",
            "ops",
            "mean_failure_cost",
            "std_error",
            "success_probability",
        ]
        assert [row[1] for row in rows[1:]] == ["10", "20"]
        assert float(rows[1][2]) > float(rows[2][2])
        assert float(rows[1][4]) < float(rows[2][4])

    def test_byte_identical_reruns(self, capsys):
        assert cli.main(self.ARGS) == 0
        first = capsys.readouterr().out
        assert cli.main(self.ARGS) == 0
        assert capsys.readouterr().out == first


# Each must exit 1 before writing anything: one stderr line, nothing on stdout
# and no --out file.
SWEEP_REJECTIONS = {
    "sigma_max_inf": (["equilibrium", "--sigma-max", "inf"], "--sigma-max must be finite"),
    "sigma_min_nan": (["equilibrium", "--sigma-min", "nan"], "--sigma-min must be finite"),
    "v_nan": (["equilibrium", "--v", "nan", "--n", "2"], "--v must be finite"),
    "sigma_range_reversed": (
        ["equilibrium", "--sigma-min", "2", "--sigma-max", "1"],
        "--sigma-min must not exceed --sigma-max",
    ),
    # fails on the first grid point, after the CSV header used to be written
    "sigma_min_zero": (
        ["equilibrium", "--sigma-min", "0", "--n", "2"],
        "sigma must lie in (0, inf)",
    ),
    "sigma_min_negative": (
        ["equilibrium", "--sigma-min", "-1", "--n", "2"],
        "sigma must lie in (0, inf)",
    ),
    # a value that starts with "-" is read as the value, and so reaches validation
    "sigma_min_negative_exponent": (
        ["equilibrium", "--sigma-min", "-1e0", "--n", "2"],
        "sigma must lie in (0, inf)",
    ),
    "v_negative_exponent": (
        ["equilibrium", "--n", "2", "--v", "-1e3", "--sigma-min", "1", "--sigma-max", "1"],
        "--v must be positive",
    ),
    "gamma_points_negative": (
        ["censorship", "--gamma-points", "-3"],
        "--gamma-points must be >= 1",
    ),
    # n=2 warns at this prize before n=1 fails; the warning must not be printed
    "bad_n_after_warning": (
        ["equilibrium", "--sigma-min", "5", "--sigma-max", "5", "--n", "2,1"],
        "n must lie in [2, inf]",
    ),
    "gas_prices_empty": (["censorship", "--gas-prices", ","], "--gas-prices: empty list"),
    "gamma_min_zero": (
        ["censorship", "--gamma-min", "0", "--gamma-points", "2"],
        "gamma must lie in [1, inf]",
    ),
    # the grid is refused before it is built
    "gamma_points_over_the_cap": (
        ["censorship", "--gamma-points", str(cli.MAX_GRID_POINTS + 1)],
        f"--gamma-points must be at most {cli.MAX_GRID_POINTS}",
    ),
    "gamma_range_reversed": (
        ["censorship", "--gamma-min", "5000000", "--gamma-max", "1000000", "--gamma-points", "3"],
        "--gamma-min must not exceed --gamma-max",
    ),
    "sigma_step_does_not_advance": (
        ["equilibrium", "--v", "1", "--n", "2", "--sigma-min", "1e17", "--sigma-max", "2e17"],
        "--sigma-step is too small to advance sigma at --sigma-max",
    ),
    # the grid stops at the cap, before any bid search
    "sigma_grid_over_the_cap": (
        ["equilibrium", "--v", "1", "--n", "2", "--sigma-max", "1", "--sigma-step", "1e-12"],
        f"the sigma grid has more than {cli.MAX_GRID_POINTS} points",
    ),
    "gammas_empty": (["throughput", "--gammas", ","], "--gammas: empty list"),
    # refused before the rung's 1,000,001 bids are built
    "rung_over_the_bound": (
        ["throughput", "--gammas", "1000001", "--gas-per-op", "1"],
        "gammas[0] must lie in [1, 1000000]",
    ),
    "rival_gas_not_an_integer": (
        ["censorship", "--rival", "100:abc"],
        "--rival '100:abc': expected BID:GAS",
    ),
    "rival_bid_not_a_number": (
        ["censorship", "--rival", "abc:100"],
        "--rival 'abc:100': not a decimal number: 'abc'",
    ),
    # a gas is ASCII digits only, as in the JSON configs; int() would take these
    "rival_gas_underscore": (
        ["censorship", "--rival", "100:1_0000"],
        "--rival '100:1_0000': expected BID:GAS",
    ),
    "rival_gas_plus": (["censorship", "--rival", "100:+5"], "--rival '100:+5': expected BID:GAS"),
    "rival_gas_space": (["censorship", "--rival", "100: 5"], "--rival '100: 5': expected BID:GAS"),
    "gas_prices_not_a_number": (
        ["censorship", "--gas-prices", "abc"],
        "--gas-prices: not a decimal number: 'abc'",
    ),
    "attacker_value_not_a_number": (
        ["censorship", "--attacker-value", "abc"],
        "--attacker-value: not a decimal number: 'abc'",
    ),
    "bid_high_not_a_number": (
        ["throughput", "--bid-high", "abc"],
        "--bid-high: not a decimal number: 'abc'",
    ),
    "bid_low_not_a_number": (
        ["throughput", "--bid-low", "abc"],
        "--bid-low: not a decimal number: 'abc'",
    ),
    # b*/v needs a positive v
    "v_zero": (
        ["equilibrium", "--n", "2", "--v", "0", "--sigma-min", "1", "--sigma-max", "1"],
        "--v must be positive",
    ),
    "v_negative": (
        ["equilibrium", "--n", "2", "--v", "-5", "--sigma-min", "1", "--sigma-max", "1"],
        "--v must be positive",
    ),
    # ASCII digits only, as a --rival gas; int() would take each of these
    "gammas_underscore_and_plus": (
        ["throughput", "--gammas", "1_000_000,+2000000", "--trials", "8"],
        "--gammas: expected comma-separated integers",
    ),
    "gammas_not_ascii": (
        ["throughput", "--gammas", "1000000,٥000000", "--trials", "8"],
        "--gammas: expected comma-separated integers",
    ),
    "n_space_and_plus": (
        ["equilibrium", "--n", " 2,+3", "--sigma-min", "1", "--sigma-max", "1"],
        "--n: expected comma-separated integers",
    ),
}


class TestSweepRejections:
    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    @pytest.mark.parametrize("case", SWEEP_REJECTIONS)
    def test_rejected_before_any_output(self, tmp_path, capsys, case, to_file):
        argv, message = SWEEP_REJECTIONS[case]
        out = tmp_path / "sweep.csv"
        extra = ["--out", str(out)] if to_file else []
        assert cli.main(["sweep", *argv, *extra]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not out.exists()

    def test_unwritable_out_is_an_error_line(self, tmp_path, capsys):
        argv = ["sweep", "censorship", "--gamma-points", "1", "--out", str(tmp_path)]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {tmp_path}: ")
        assert captured.err.count("\n") == 1

    def test_repeated_calls_do_not_share_flag_state(self, capsys):
        argv = ["sweep", "censorship", "--gamma-points", "1", "--rival", "100:100000"]
        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == first


def iid_config(**model_overrides):
    model = {
        "kind": "iid_failure",
        "n": 2,
        "q": 0.5,
        "v": "100",
        "bids": ["66", "66"],
    }
    model.update(model_overrides)
    return {"schema": "simulate/1", "seed": 42, "trials": 2_000, "model": model}


class TestSimulate:
    def test_iid_report(self, tmp_path, capsys):
        path = write_json(tmp_path, "config.json", iid_config())
        assert cli.main(["simulate", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["model"] == "iid_failure"
        assert report["trials"] == 2_000
        assert list(report["per_solver"]) == ["s000", "s001"]

    def test_spoof_attack_report(self, tmp_path, capsys):
        config = {
            "schema": "simulate/1",
            "seed": 1,
            "model": {
                "kind": "spoof_attack",
                "gamma": 1_000_000,
                "gas_price": "0.00075",
                "rivals": [{"bid": "100", "gas_reserved": 100_000}],
                "attacker_value": "50",
            },
        }
        path = write_json(tmp_path, "config.json", config)
        assert cli.main(["simulate", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rivals_blocked"] is True
        assert report["attacker_total_cost"] == "851"

    def test_timeline_report(self, tmp_path, capsys):
        config = {"schema": "simulate/1", "seed": 0, "model": {"kind": "timeline"}}
        path = write_json(tmp_path, "config.json", config)
        assert cli.main(["simulate", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["guarantee_at_ms"] == 400
        assert report["chain_quiet_between_order_and_guarantee"] is True

    def test_normal_valuation_sigma_must_be_numeric(self, tmp_path, capsys):
        config = {
            "schema": "simulate/1",
            "seed": 1,
            "trials": 16,
            "model": {
                "kind": "normal_valuation",
                "n": 2,
                "v": "100",
                "sigma": "5",
                "bids": ["99", "99"],
            },
        }
        path = write_json(tmp_path, "config.json", config)
        assert cli.main(["simulate", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: config.model: sigma must be a real number, got str\n"

    def test_spoof_requires_rivals(self, tmp_path, capsys):
        config = {
            "schema": "simulate/1",
            "seed": 1,
            "model": {"kind": "spoof_attack", "gamma": 1_000_000},
        }
        path = write_json(tmp_path, "config.json", config)
        assert cli.main(["simulate", path]) == 1
        assert "missing field(s) ['rivals']" in capsys.readouterr().err

    def test_unknown_model_kind(self, tmp_path, capsys):
        config = {"schema": "simulate/1", "seed": 1, "model": {"kind": "mystery"}}
        path = write_json(tmp_path, "config.json", config)
        assert cli.main(["simulate", path]) == 1
        assert "unknown model kind 'mystery'" in capsys.readouterr().err

    def test_zero_trials_rejected(self, tmp_path, capsys):
        config = iid_config()
        config["trials"] = 0
        path = write_json(tmp_path, "config.json", config)
        assert cli.main(["simulate", path]) == 1
        assert "config: trials must lie in [1, 9223372036854775807]" in capsys.readouterr().err

    def test_trials_beyond_int64_rejected(self, tmp_path, capsys):
        # numpy draws the pattern counts as int64: 2**63 would be a traceback
        config = iid_config()
        config["trials"] = 9223372036854775808
        path = write_json(tmp_path, "config.json", config)
        assert run_rejected(capsys, path) == (
            "error: config: trials must lie in [1, 9223372036854775807]\n"
        )

    @pytest.mark.parametrize("argv", [["simulate", "config.json"], ["sweep", "throughput"]])
    def test_jobs_is_a_usage_error(self, capsys, argv):
        # --jobs had no effect since the thread pool went; it is no longer an option
        with pytest.raises(SystemExit) as excinfo:
            cli.main([*argv, "--jobs", "3"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --jobs 3" in captured.err


# kind -> (its required fields, its optional fields spelled out at the
# library defaults)
MODEL_FIELDS = {
    "iid_failure": (
        {"n": 2, "q": 0.5, "v": "100", "bids": ["66", "60"]},
        {"gas_per_op": 100_000, "gas_price": "0"},
    ),
    "normal_valuation": (
        {"n": 2, "v": "100", "sigma": 5, "bids": ["99", "98"]},
        {"gas_per_op": 100_000, "gas_price": "0"},
    ),
    "throughput_sweep": (
        {"gammas": [1_000_000, 2_000_000]},
        {"gas_per_op": 100_000, "bid_high": "100", "bid_low": "50", "q": 0.5},
    ),
    "spoof_attack": (
        {"gamma": 1_000_000, "rivals": [{"bid": "100", "gas_reserved": 100_000}]},
        {
            "gas_price": "0",
            "attacker_value": "0",
            "bid_margin": "1",
            "attacker_gas": None,
            "attacker_behavior": "revert",
        },
    ),
    "timeline": (
        {},
        {
            "user_latency_ms": 50,
            "auction_duration_ms": 300,
            "execution_delay_ms": 50,
            "solver_ops": [],
        },
    ),
}


def model_config(kind, **fields):
    model = {"kind": kind, **fields}
    return {"schema": "simulate/1", "seed": 7, "trials": 200, "model": model}


def normal_config_with_sigma(tmp_path, literal):
    """Write a normal_valuation config whose sigma is the raw JSON ``literal``."""
    config = model_config("normal_valuation", **MODEL_FIELDS["normal_valuation"][0])
    path = tmp_path / "config.json"
    text = json.dumps(config).replace('"sigma": 5', f'"sigma": {literal}')
    path.write_text(text, encoding="utf-8")
    return str(path)


def run_rejected(capsys, path):
    """Run ``simulate`` on a config that must fail; return its one stderr line."""
    assert cli.main(["simulate", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    return captured.err


class TestModelFields:
    @pytest.mark.parametrize("kind", MODEL_FIELDS)
    def test_omitted_optional_fields_take_library_defaults(self, tmp_path, capsys, kind):
        required, defaults = MODEL_FIELDS[kind]
        bare = write_json(tmp_path, "bare.json", model_config(kind, **required))
        spelled = write_json(
            tmp_path, "spelled.json", model_config(kind, **required, **defaults)
        )
        assert cli.main(["simulate", bare]) == 0
        omitted = capsys.readouterr().out
        assert cli.main(["simulate", spelled]) == 0
        assert capsys.readouterr().out == omitted

    @pytest.mark.parametrize(
        "kind, field",
        [
            (kind, field)
            for kind, (required, _) in MODEL_FIELDS.items()
            for field in required
        ],
    )
    def test_missing_required_field_is_reported(self, tmp_path, capsys, kind, field):
        fields = dict(MODEL_FIELDS[kind][0])
        del fields[field]
        path = write_json(tmp_path, "config.json", model_config(kind, **fields))
        err = run_rejected(capsys, path)
        assert err == f"error: config.model: missing field(s) [{field!r}]\n"

    @pytest.mark.parametrize("kind", MODEL_FIELDS)
    def test_unknown_field_is_reported(self, tmp_path, capsys, kind):
        config = model_config(kind, **MODEL_FIELDS[kind][0], extra_knob=1)
        err = run_rejected(capsys, write_json(tmp_path, "config.json", config))
        assert err == "error: config.model: unknown field(s) ['extra_knob']\n"

    @pytest.mark.parametrize(
        "kind, fields, message",
        [
            (
                "spoof_attack",
                {"rivals": [{"bid": "100", "gas_reserved": 1, "x": 1}], "gamma": 10},
                "config.model.rivals[0]: unknown field(s) ['x']",
            ),
            (
                "timeline",
                {"solver_ops": [{"solver_id": "a", "gas_reserved": 1}]},
                "config.model.solver_ops[0]: missing field(s) ['bid']",
            ),
            (
                "timeline",
                {"solver_ops": {}},
                "config.model.solver_ops: expected an array",
            ),
            (
                "timeline",
                {"schedule": {"user_gas_consumed": 0}},
                "config.model.schedule: missing field(s) ['tx_gas_limit']",
            ),
            (
                "spoof_attack",
                {"rivals": [{"bid": "3", "gas_reserved": 1}], "gamma": 10, "bid_margin": "-5"},
                "config.model: best rival bid + bid_margin must be non-negative",
            ),
        ],
    )
    def test_nested_objects_are_validated(self, tmp_path, capsys, kind, fields, message):
        path = write_json(tmp_path, "config.json", model_config(kind, **fields))
        err = run_rejected(capsys, path)
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_json_constant_is_rejected(self, tmp_path, capsys, literal):
        # "sigma": NaN used to exit 0 with an all-revert report
        path = normal_config_with_sigma(tmp_path, literal)
        assert run_rejected(capsys, path) == (
            f"error: {path} is not valid JSON: {literal} is not a finite number\n"
        )

    @pytest.mark.parametrize(
        "number, message",
        [
            ("1e400", "sigma must lie in (0, inf)"),
            (str(10**400), "sigma is too large for a float"),
        ],
        ids=["float", "int"],
    )
    def test_overflowing_number_is_rejected(self, tmp_path, capsys, number, message):
        # json reads 1e400 as inf
        path = normal_config_with_sigma(tmp_path, number)
        assert run_rejected(capsys, path) == f"error: config.model: {message}\n"


# JSON object → (its parser, the dataclass its fields come from, the fields a
# file may hold and the ones it must hold). The lists pin the file format, so
# renaming a library field fails here rather than changing the format unseen.
DERIVED = {
    "schedule": (
        cli._SCHEDULE, GasSchedule,
        ["tx_gas_limit", "user_gas_consumed", "gas_price"],
        ["tx_gas_limit", "user_gas_consumed"],
    ),
    "solver_op": (
        cli._SOLVER_OP, SolverOperation,
        ["solver_id", "bid", "gas_reserved", "gas_used", "behavior"],
        ["solver_id", "bid", "gas_reserved"],
    ),
    "iid_failure": (
        cli._MODELS["iid_failure"], IidFailure,
        ["n", "q", "v", "bids", "gas_per_op", "gas_price"],
        ["n", "q", "v", "bids"],
    ),
    "normal_valuation": (
        cli._MODELS["normal_valuation"], NormalValuation,
        ["n", "v", "sigma", "bids", "gas_per_op", "gas_price"],
        ["n", "v", "sigma", "bids"],
    ),
    "throughput_sweep": (
        cli._MODELS["throughput_sweep"], ThroughputSweep,
        ["gammas", "gas_per_op", "bid_high", "bid_low", "q"],
        ["gammas"],
    ),
    # the timeline adds the auction it runs to its latencies
    "timeline": (
        cli._MODELS["timeline"], TimelineConfig,
        ["user_latency_ms", "auction_duration_ms", "execution_delay_ms",
         "schedule", "solver_ops", "escrow_snapshot"],
        [],
    ),
}
_TIMELINE_OWN = ["schedule", "solver_ops", "escrow_snapshot"]


def _refusal(parse, value):
    with pytest.raises(cli.ScenarioError) as excinfo:
        parse(value)
    return excinfo.value.problem


class TestDerivedSchema:
    @pytest.mark.parametrize("key", DERIVED)
    def test_a_json_object_takes_exactly_its_dataclass_fields(self, key):
        parse, cls, fields, _ = DERIVED[key]
        own = _TIMELINE_OWN if key == "timeline" else []
        assert fields == [f.name for f in dataclasses.fields(cls) if f.init] + own
        others = {name for entry in DERIVED.values() for name in entry[2]} | {"not_a_field"}
        others = sorted(others - set(fields))
        assert _refusal(parse, dict.fromkeys(fields + others)) == f"unknown field(s) {others}"

    @pytest.mark.parametrize("key", DERIVED)
    def test_a_json_object_requires_exactly_the_fields_without_a_default(self, key):
        parse, cls, _, required = DERIVED[key]
        missing = dataclasses.MISSING
        assert required == [
            f.name for f in dataclasses.fields(cls)
            if f.default is missing and f.default_factory is missing
        ]
        if required:
            assert _refusal(parse, {}) == f"missing field(s) {sorted(required)}"
        else:
            parse({})

    def test_a_parser_for_a_field_the_dataclass_lacks_is_refused_when_built(self):
        with pytest.raises(TypeError, match=r"^GasSchedule has no field\(s\) \['gas'\]$"):
            cli._fields(GasSchedule, gas=cli._currency)


class TestUsage:
    def test_no_arguments_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main([])
        assert excinfo.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["audit"])
        assert excinfo.value.code == 2

    def test_unknown_sweep_kind(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["sweep", "latency"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "argv, problem",
        [
            ([], "got nothing"),
            (["audit"], "got audit"),
            (["sweep", "latency"], "got sweep latency"),
            (["sweep", "censorship", "--zzz", "1"], "unrecognized arguments: --zzz 1"),
            (["sweep", "censorship", "--gamma-min", "5", "--seed"], "--seed needs a value"),
            (["sweep", "censorship", "--gamma-points", "abc"],
             "--gamma-points: invalid int value: 'abc'"),
            (["settle"], "got settle"),
            (["settle", "a.json", "b.json"], "unrecognized arguments: b.json"),
        ],
        ids=[
            "no_argv", "command", "kind", "flag", "no_value", "not_an_int", "no_file", "two_files"
        ],
    )
    def test_usage_error_is_a_usage_line_and_one_error_line(self, capsys, argv, problem):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        usage, error = captured.err.splitlines()
        assert usage.startswith("usage: ofasim ")
        assert error.startswith("ofasim: error: ") and error.endswith(problem)

    @pytest.mark.parametrize("argv", [["-h"], ["sweep", "--help"], ["settle", "x.json", "-h"]])
    def test_help_lists_every_flag_and_its_default(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = [line.split() for line in captured.out.splitlines()]
        for flag, (_, default) in cli._SWEEP_OPTIONS.items():
            assert [flag, str(default)] in lines, flag


@pytest.mark.parametrize("name, code", [("scenario.json", 0), ("missing.json", 1)])
def test_run_returns_the_code_of_main(tmp_path, monkeypatch, capsys, name, code):
    write_json(tmp_path, "scenario.json", settle_scenario())
    argv = ["settle", str(tmp_path / name)]
    monkeypatch.setattr(sys, "argv", ["ofasim", *argv])
    assert cli.run() == code
    first = capsys.readouterr()
    assert cli.main(argv) == code
    assert capsys.readouterr() == first


class _ClosedStdout(io.StringIO):
    """A stdout whose reader has gone: flushing it fails, and its descriptor
    is a file the test owns."""

    def __init__(self, descriptor: int) -> None:
        super().__init__()
        self.descriptor = descriptor

    def flush(self) -> None:
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self) -> int:
        return self.descriptor


def test_run_turns_a_closed_stdout_into_exit_1(tmp_path, monkeypatch):
    write_json(tmp_path, "scenario.json", settle_scenario())
    monkeypatch.setattr(sys, "argv", ["ofasim", "settle", str(tmp_path / "scenario.json")])
    with open(tmp_path / "stdout", "wb") as target:
        closed = _ClosedStdout(target.fileno())
        monkeypatch.setattr(sys, "stdout", closed)
        assert cli.run() == 1
        os.write(target.fileno(), b"lost")  # the descriptor now leads to devnull
    assert closed.getvalue().startswith("{")
    assert (tmp_path / "stdout").read_bytes() == b""


class TestFloatRange:
    """Amounts that pass exact parsing but cannot become a finite float."""

    @pytest.mark.parametrize(
        "kind, fields",
        [
            ("iid_failure", {"v": "1e400"}),
            ("normal_valuation", {"v": "1e400"}),
            ("iid_failure", {"bids": ["1e400", "4"]}),
        ],
        ids=["iid_v", "normal_v", "iid_bids"],
    )
    def test_simulate_rejects_amount_beyond_float_range(self, tmp_path, capsys, kind, fields):
        required = {**MODEL_FIELDS[kind][0], **fields}
        path = write_json(tmp_path, "config.json", model_config(kind, **required))
        assert run_rejected(capsys, path).endswith("is too large for a float\n")

    def test_throughput_rejects_bid_beyond_float_range(self, capsys):
        assert cli.main(["sweep", "throughput", "--bid-high", "1e400", "--trials", "8"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: failure cost is too large for a float\n"


def test_throughput_rejects_trials_beyond_int64(capsys):
    argv = ["sweep", "throughput", "--trials", "9223372036854775808"]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: trials must lie in [1, 9223372036854775807]\n"


@pytest.mark.parametrize("gas", ["0", "-5"])
def test_throughput_rejects_non_positive_gas_per_op(capsys, gas):
    # 0 used to end in a ZeroDivisionError, -5 in an IndexError
    assert cli.main(["sweep", "throughput", f"--gas-per-op={gas}", "--trials", "8"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: gas_per_op must lie in [1, inf]\n"


@pytest.mark.parametrize(
    "flags, message",
    [
        # at 1e17 adding 0.5 leaves sigma unchanged: the grid loop never ended
        (
            ["--sigma-min", "1e17", "--sigma-max", "2e17"],
            "--sigma-step is too small to advance sigma at --sigma-max",
        ),
        (
            ["--sigma-min", "0", "--sigma-max", "1", "--sigma-step", "1e-12"],
            f"the sigma grid has more than {cli.MAX_GRID_POINTS} points",
        ),
        (
            ["--sigma-min=-1e17", "--sigma-max", "1"],
            f"the sigma grid has more than {cli.MAX_GRID_POINTS} points",
        ),
        # 2**53 + 1 rounds back to 2**53, though 2**53 - 1 does not
        (
            ["--sigma-min", "9007199254740992", "--sigma-max", "9007199254740992",
             "--sigma-step", "1"],
            "--sigma-step is too small to advance sigma at --sigma-max",
        ),
    ],
    ids=["step_does_not_advance", "too_many_points", "stuck_below_sigma_max", "step_rounds_back"],
)
def test_unbounded_sigma_grid_is_rejected_before_any_work(flags, message):
    # In a subprocess with a timeout and 1 GiB of address space, so a grid
    # loop that never ends fails the test instead of hanging or filling memory.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = ["sweep", "equilibrium", "--v", "1", "--n", "2", *flags]
    done = subprocess.run(
        [sys.executable, "-m", "ofasim.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)),
        timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (1, "", f"error: {message}\n")


def _reject_constant(name):
    raise ValueError(f"non-finite {name} in the report")


@pytest.mark.parametrize(
    "fields",
    [
        # v + sigma * Z overflows to infinity for most draws
        {"n": 3, "v": "100", "sigma": 1e308, "bids": ["99", "98", "97"]},
        # squares of these payoffs overflow, though every mean fits a float
        {"n": 2, "v": "1e200", "sigma": 1, "bids": ["1e200", "1e200"]},
        {"n": 3, "v": "1e200", "sigma": 1e199, "bids": ["1e200", "9e199", "5e199"]},
    ],
    ids=["huge_sigma", "huge_v_and_bids", "huge_spread"],
)
def test_overflowing_normal_valuation_ends_cleanly(tmp_path, fields):
    # In a subprocess, so a numpy warning would show on the real stderr. The
    # run either reports strict JSON or is refused with one error line.
    config = model_config("normal_valuation", **fields)
    config = write_json(tmp_path, "config.json", config)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "ofasim.cli", "simulate", config],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    if done.returncode == 0:
        assert done.stderr == ""
        json.loads(done.stdout, parse_constant=_reject_constant)
    else:
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


def _ops_with(index, **fields):
    """Four valid solver ops, the one at ``index`` changed by ``fields``."""
    ops = [
        {"solver_id": f"s{i}", "bid": f"{90 - i}", "gas_reserved": 100_000}
        for i in range(4)
    ]
    ops[index] = {**ops[index], **fields}
    return ops


# (case id, config, the exact stderr line)
MALFORMED_FILES = [
    (
        "nested_float_bid",
        settle_scenario(solver_ops=_ops_with(3, bid=1.5)),
        "scenario.solver_ops[3].bid: currency must be a decimal string, not a float "
        "(binary floats would break exact accounting)",
    ),
    (
        "first_failing_field_in_spec_order",
        # behavior comes first in the file but after bid in the spec
        settle_scenario(
            solver_ops=[
                {"behavior": 1, "solver_id": "s0", "bid": "1.2.3", "gas_reserved": 100_000},
                *_ops_with(0)[1:],
            ]
        ),
        "scenario.solver_ops[0].bid: not a decimal number: '1.2.3'",
    ),
    (
        "top_level_missing_fields",
        {"schema": "settle/1"},
        "scenario: missing field(s) ['schedule', 'solver_ops']",
    ),
    (
        "missing_before_unknown",
        {"schema": "settle/1", "schedule": {}, "zeta": 1, "alpha": 2},
        "scenario: missing field(s) ['solver_ops']",
    ),
    (
        "nested_unknown_fields",
        settle_scenario(solver_ops=_ops_with(2, colour="red", extra=None)),
        "scenario.solver_ops[2]: unknown field(s) ['colour', 'extra']",
    ),
    (
        "solver_op_builder",
        settle_scenario(solver_ops=_ops_with(0, gas_used=100_001)),
        "scenario.solver_ops[0]: gas_used must lie in [0, 100000]",
    ),
    (
        "schedule_builder",
        settle_scenario(schedule={"tx_gas_limit": 5, "user_gas_consumed": 6}),
        "scenario.schedule: solver gas budget tx_gas_limit - user_gas_consumed must be positive",
    ),
    (
        "zero_budget",
        settle_scenario(schedule={"tx_gas_limit": 5, "user_gas_consumed": 5}),
        "scenario.schedule: solver gas budget tx_gas_limit - user_gas_consumed must be positive",
    ),
    (
        "private_value_literal",
        settle_scenario(private_values={"a": "1", "b": "12,5"}),
        "scenario.private_values.b: not a decimal number: '12,5'",
    ),
    (
        "nineteen_fractional_digits",
        settle_scenario(solver_ops=_ops_with(0, bid="0." + "1" * 19)),
        f"scenario.solver_ops[0].bid: more than 18 fractional digits: '0.{'1' * 19}'",
    ),
    (
        "wrong_schema",
        settle_scenario(schema="settle/2"),
        "scenario.schema: expected 'settle/1', got 'settle/2'",
    ),
    (
        "admission",
        settle_scenario(private_values={"a": "-1"}),
        "private value must be non-negative",
    ),
    (
        "rival_gas_type",
        model_config(
            "spoof_attack",
            gamma=1_000_000,
            rivals=[{"bid": "100", "gas_reserved": "100000"}],
        ),
        "config.model: rival gas must be an int, got str",
    ),
    (
        "spoof_builder",
        model_config(
            "spoof_attack", gamma=10, rivals=[{"bid": "100", "gas_reserved": 11}]
        ),
        "config.model: rival gas must lie in [1, 10]",
    ),
    (
        "unknown_kind",
        model_config("mystery"),
        "config.model.kind: unknown model kind 'mystery' (expected iid_failure, "
        "normal_valuation, throughput_sweep, spoof_attack or timeline)",
    ),
    (
        "kind_not_a_string",
        model_config(7),
        "config.model.kind: expected a string",
    ),
    (
        "model_not_an_object",
        {"schema": "simulate/1", "seed": 1, "model": []},
        "config.model: expected an object",
    ),
    (
        "iid_builder",
        model_config("iid_failure", n=2, q=1.5, v="10", bids=["5", "4"]),
        "config.model: q must lie in [0, 1]",
    ),
    (
        "gamma_entry",
        model_config("throughput_sweep", gammas=[1_000_000, 0]),
        "config.model: gammas[1] must lie in [100000, 100000099999]",
    ),
    (
        "timeline_behavior",
        model_config(
            "timeline",
            solver_ops=[
                {"solver_id": "a", "bid": "1", "gas_reserved": 1, "behavior": "win"}
            ],
        ),
        "config.model.solver_ops[0].behavior: behavior must be 'succeed' or 'revert'",
    ),
    (
        "snapshot_entry",
        model_config("timeline", escrow_snapshot={"a": "1", "b": 2.5}),
        "config.model.escrow_snapshot.b: currency must be a decimal string, not a "
        "float (binary floats would break exact accounting)",
    ),
    (
        "timeline_ops_without_schedule",
        model_config(
            "timeline", solver_ops=[{"solver_id": "a", "bid": "1", "gas_reserved": 1}]
        ),
        "config.model: solver ops and an escrow snapshot need a schedule",
    ),
    (
        "snapshot_not_an_object",
        model_config("timeline", escrow_snapshot=["a", "1"]),
        "config.model.escrow_snapshot: expected an object",
    ),
    (
        "private_values_not_an_object",
        settle_scenario(private_values="b=120"),
        "scenario.private_values: expected an object",
    ),
    (
        "behavior_not_a_string",
        settle_scenario(solver_ops=_ops_with(0, behavior=1)),
        "scenario.solver_ops[0].behavior: expected a string",
    ),
    (
        "bid_not_a_string_or_float",
        settle_scenario(solver_ops=_ops_with(2, bid=[])),
        "scenario.solver_ops[2].bid: currency must be a decimal string",
    ),
    (
        # null is not read as a left-out gas_used
        "gas_used_null",
        settle_scenario(solver_ops=_ops_with(1, gas_used=None)),
        "scenario.solver_ops[1].gas_used: expected an integer, got null",
    ),
    (
        "spoof_without_rivals",
        model_config("spoof_attack", gamma=1_000_000, rivals=[]),
        "config.model: censorship scenario needs at least one rival",
    ),
    (
        # each payoff fits a float, but a squared deviation of the Monte-Carlo does not
        "statistic_beyond_float_range",
        iid_config(n=3, v="1e160", bids=["1e160", "5e159", "3e159"]),
        "a Monte-Carlo statistic does not fit a float",
    ),
    (
        "seed_range",
        {**iid_config(), "seed": -1},
        "config: seed must lie in [0, 18446744073709551615]",
    ),
]


@pytest.mark.parametrize(
    "config, message",
    [case[1:] for case in MALFORMED_FILES],
    ids=[case[0] for case in MALFORMED_FILES],
)
def test_malformed_file_gets_its_exact_diagnostic(tmp_path, capsys, config, message):
    path = write_json(tmp_path, "input.json", config)
    command = "simulate" if config.get("schema") == "simulate/1" else "settle"
    assert cli.main([command, path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_reports_are_checked_by_reserializing(tmp_path, capsys, reserialized):
    # the autouse fixture re-serializes every settle and simulate report
    assert cli.main(["settle", write_json(tmp_path, "s.json", settle_scenario())]) == 0
    assert cli.main(["simulate", write_json(tmp_path, "c.json", iid_config())]) == 0
    assert "".join(reserialized) == capsys.readouterr().out
    assert len(reserialized) == 2


def test_sigma_below_float_resolution_is_rejected(tmp_path, capsys):
    # such a run used to exit 0 with X − b = 16 for every winner
    config = model_config("normal_valuation", n=1, v="1e17", sigma=1, bids=["1e17"])
    assert run_rejected(capsys, write_json(tmp_path, "config.json", config)) == (
        "error: config.model: sigma must be at least 2**-40 times max(|v|, bids)\n"
    )


def test_byte_order_mark_is_refused_as_json_does(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text("\ufeff" + json.dumps(settle_scenario()), encoding="utf-8")
    assert cli.main(["settle", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {path} is not valid JSON: Unexpected UTF-8 BOM "
        "(decode using utf-8-sig): line 1 column 1 (char 0)\n"
    )


def test_file_that_is_not_utf8_names_its_path(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(b"\xff\xfe")
    assert cli.main(["simulate", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {path} is not valid JSON: 'utf-8' codec can't decode byte 0xff "
        "in position 0: invalid start byte\n"
    )


_EDGE_TEXT = ["", "é", "日本語", "\x00\x1f\x7f", '"', "\\", "\ud800", "\udfff\ud800", " "]
_EDGE_NUMBERS = [
    -0.0, 1e16, 5e-324, 1.7976931348623157e308, float("nan"), float("inf"),
    float("-inf"), np.float64(2.5), np.float64("nan"), 2**64, -(2**64) - 1, 2**200,
    enum.IntEnum("Level", "LOW HIGH").HIGH,  # an int subclass, written as the int
]
# every category, and lone surrogates, which ``characters()`` rarely draws
_JSON_TEXT = st.text(
    st.characters(exclude_categories=()) | st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF)
) | st.sampled_from(_EDGE_TEXT)
_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**130)
    | st.floats()
    | st.floats().map(np.float64)
    | st.sampled_from(_EDGE_NUMBERS)
    | _JSON_TEXT
)
_JSON_KEYS = _JSON_TEXT | st.none() | st.booleans() | st.integers() | st.floats()
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(_JSON_KEYS, inner, max_size=5),
    max_leaves=25,
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_JSON_VALUES)
@example({"text": _EDGE_TEXT, "numbers": _EDGE_NUMBERS, "flags": (True, False, None)})
@example([{}, [], (), {"": {}}, [[]], ""])
def test_report_emitter_matches_json_dumps(value):
    assert cli._dumps(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value", [{"x": np.int64(1)}, [Decimal("1")], {(1, 2): 3}, {"x": {1, 2}}]
)
def test_report_emitter_leaves_unknown_types_to_json(value):
    with pytest.raises(TypeError) as ours:
        cli._dumps(value)
    with pytest.raises(TypeError) as theirs:
        json.dumps(value, indent=2)
    assert str(ours.value) == str(theirs.value)


# The reader against a reference: argparse, built from the same option table
# with prefix abbreviations off. Every line must read the same on both sides,
# to the same namespace, help (exit 0) or usage error (exit 2), unless it is
# one of the documented differences (``_reads_differently_on_purpose``).
_FLAGS = list(cli._SWEEP_OPTIONS)
_ODD_TOKENS = [
    "--gamma", "--sig", "--out=x", "-h", "--help", "--", "--zzz", "-q", "-",
    "settle", "sweep", "simulate", "censorship", "latency",
]
_VALUES = [
    "3", "0", "007", "0.5", "1e3", "2,5", "100:100000", "x.csv", "inf", "nan",
    "-5", "1_000", " 7", "+3", "٥", "", "-", "abc", "1,,2",
]


def _random_argv(rng: random.Random) -> list[str]:
    argv = [rng.choice(["settle", "simulate", "sweep", "sweep", "sweep", "-h", "audit"])]
    if argv[0] == "sweep":
        argv.append(rng.choice([*cli._SWEEPS, "latency", "--out"]))
    elif rng.random() < 0.8:
        argv.append(rng.choice(["in.json", *_VALUES]))
    pairs = rng.randrange(4) if argv[0] == "sweep" or rng.random() < 0.2 else 0
    for _ in range(pairs):
        flag = rng.choice(_FLAGS) if rng.random() < 0.85 else rng.choice(_ODD_TOKENS)
        argv += [flag, rng.choice(_VALUES)] if rng.random() < 0.95 else [flag]
    return argv


def _reference_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ofasim", allow_abbrev=False)
    commands = parser.add_subparsers(dest="command", required=True)
    for command in ("settle", "simulate"):
        commands.add_parser(command, allow_abbrev=False).add_argument("file")
    sweep = commands.add_parser("sweep", allow_abbrev=False)
    sweep.add_argument("kind", choices=list(cli._SWEEPS))
    for flag, (convert, default) in cli._SWEEP_OPTIONS.items():
        action = "append" if flag == "--rival" else "store"
        sweep.add_argument(flag, type=convert, default=default, action=action)
    return parser


_REFERENCE = _reference_parser()


def _outcome(read, argv):
    """``repr`` of ``vars`` of the namespace ``read(argv)`` returns (by repr, so
    NaN equals NaN), or the code it exits with."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return repr(vars(read(argv)))
    except SystemExit as exc:
        return exc.code


def _reads_differently_on_purpose(argv):
    """KIND not straight after ``sweep``, a ``--`` token (argparse's end of
    options), or a token that starts with ``-`` as FILE or after a flag
    (the reader takes it as the value; argparse reads it as an option)."""
    if argv[0] == "sweep" and argv[1:2] not in [[kind] for kind in cli._SWEEPS]:
        return True
    if "--" in argv or argv[0] in ("settle", "simulate") and argv[1:2] and argv[1][:1] == "-":
        return True
    return any(flag in _FLAGS and value[:1] == "-" for flag, value in zip(argv[2:], argv[3:]))


def test_plain_reader_agrees_with_argparse():
    rng = random.Random(20_240_817)
    read, help_shown, differences = 0, 0, 0
    for _ in range(3000):
        argv = _random_argv(rng)
        ours, reference = _outcome(cli._read_argv, argv), _outcome(_REFERENCE.parse_args, argv)
        if ours != reference:
            assert _reads_differently_on_purpose(argv), (argv, ours, reference)
            differences += 1
        elif ours == 0:
            help_shown += 1
        elif ours != 2:
            read += 1
    assert read > 300 and help_shown > 100 and differences <= 10, (read, help_shown, differences)


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "censorship", "--rival", "1:2", "--rival", "3:4"],
        ["sweep", "equilibrium", "--v", "nan", "--n", "2"],
        ["sweep", "throughput", "--trials", "٥", "--q", " 7"],
        ["settle", ""],
        # the last of a repeated flag wins; --flag=VALUE splits at the first "="
        ["sweep", "censorship", "--seed", "1", "--seed", "2", "--out=a=b.csv"],
        ["sweep", "equilibrium", "--sigma-min", "-5", "--v=-1e3"],
        ["settle", "-"],
    ],
)
def test_plain_reader_answers_plain_lines(argv):
    ours = _outcome(cli._read_argv, argv)
    assert ours == _outcome(_REFERENCE.parse_args, argv) and ours not in (0, 2)


@pytest.mark.parametrize(
    "argv, ours, reference",
    [
        (["sweep", "equilibrium", "--v", "-1e3"], "namespace", 2),
        (["sweep", "censorship", "--out", "-h"], "namespace", 2),
        (["settle", "-scenario.json"], "namespace", 2),
        (["sweep", "--seed", "3", "censorship"], 2, "namespace"),
        (["sweep", "censorship", "--"], 2, "namespace"),
        (["settle", "--", "scenario.json"], 2, "namespace"),
    ],
)
def test_documented_differences_from_argparse(argv, ours, reference):
    assert _reads_differently_on_purpose(argv)
    outcomes = [_outcome(cli._read_argv, argv), _outcome(_REFERENCE.parse_args, argv)]
    assert [code if code in (0, 2) else "namespace" for code in outcomes] == [ours, reference]


def test_benchmark_command_lines_read_as_argparse_reads_them(tmp_path):
    # bench/cli_batch.py's own generator, so the benchmark's lines are the ones checked
    root = os.path.dirname(os.path.dirname(os.path.dirname(cli.__file__)))
    sys.path.insert(0, os.path.join(root, "bench"))
    try:
        cli_batch = importlib.import_module("cli_batch")
        for seed in (1, 2, 3):
            workdir = tmp_path / str(seed)
            workdir.mkdir()
            for command in cli_batch.Workload(seed, sys.modules["ofasim"], str(workdir)).commands:
                ours = _outcome(cli._read_argv, command.argv)
                assert ours == _outcome(_REFERENCE.parse_args, command.argv), command.argv
                assert ours not in (0, 2), command.argv
    finally:
        sys.path.remove(os.path.join(root, "bench"))
        for name in ("cli_batch", "model"):
            sys.modules.pop(name, None)


@pytest.mark.parametrize(
    "argv",
    [
        ["settle", "scenario.json"],
        ["simulate", "config.json"],
        ["sweep", "censorship", "--gamma-points", "40"],
    ],
    ids=["settle", "simulate", "sweep"],
)
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_1_without_a_traceback(tmp_path, argv, unbuffered):
    write_json(tmp_path, "scenario.json", settle_scenario())
    write_json(tmp_path, "config.json", iid_config())
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    # buffered, the write fails at the last flush; unbuffered, inside print()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    program = subprocess.Popen(
        [sys.executable, "-m", "ofasim.cli", *argv],
        cwd=tmp_path,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    program.stdout.close()  # before the program writes, so its first write fails
    err = program.stderr.read()
    program.stderr.close()
    assert (program.wait(timeout=60), err) == (1, b"")
