"""End-to-end tests for the ``ofasim`` command-line interface.

Every test drives ``cli.main`` in-process and checks exit codes, stdout
payloads and stderr diagnostics. Error paths must leave stdout empty so the
tool stays safe to pipe.
"""

from __future__ import annotations

import csv
import io
import json

import pytest

from ofasim import cli


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

    def test_jobs_are_byte_identical(self, tmp_path, capsys):
        path = write_json(tmp_path, "config.json", iid_config())
        assert cli.main(["simulate", path]) == 0
        serial = capsys.readouterr().out
        assert cli.main(["simulate", path, "--jobs", "3"]) == 0
        assert capsys.readouterr().out == serial

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
        assert "config.model.sigma: expected a number" in captured.err

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
        assert "config.trials: must be >= 1" in capsys.readouterr().err

    def test_zero_jobs_rejected(self, tmp_path, capsys):
        path = write_json(tmp_path, "config.json", iid_config())
        assert cli.main(["simulate", path, "--jobs", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--jobs must be >= 1" in captured.err


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
