"""End-to-end tests for the ``ofasim`` command-line interface.

Every test drives ``cli.main`` in-process and checks exit codes, stdout
payloads and stderr diagnostics. Error paths must leave stdout empty so the
tool stays safe to pipe.
"""

from __future__ import annotations

import csv
import io
import json
import os
import resource
import subprocess
import sys

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
        "sigma must be positive",
    ),
    # n=2 warns at this prize before n=1 fails; the warning must not be printed
    "bad_n_after_warning": (
        ["equilibrium", "--sigma-min", "5", "--sigma-max", "5", "--n", "2,1"],
        "n must be an integer >= 2",
    ),
    "gas_prices_empty": (["censorship", "--gas-prices", ","], "--gas-prices: empty list"),
    "gamma_min_zero": (
        ["censorship", "--gamma-min", "0", "--gamma-points", "2"],
        "gamma must be a positive integer",
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

    @pytest.mark.parametrize("number", ["1e400", str(10**400)], ids=["float", "int"])
    def test_overflowing_number_is_rejected(self, tmp_path, capsys, number):
        path = normal_config_with_sigma(tmp_path, number)
        assert run_rejected(capsys, path) == (
            "error: config.model.sigma: expected a finite number\n"
        )


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


@pytest.mark.parametrize("gas", ["0", "-5"])
def test_throughput_rejects_non_positive_gas_per_op(capsys, gas):
    # 0 used to end in a ZeroDivisionError, -5 in an IndexError
    assert cli.main(["sweep", "throughput", f"--gas-per-op={gas}", "--trials", "8"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: gas_per_op must be a positive integer\n"


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
            f"the sigma grid has more than {cli.MAX_SIGMA_POINTS} points",
        ),
        (
            ["--sigma-min=-1e17", "--sigma-max", "1"],
            f"the sigma grid has more than {cli.MAX_SIGMA_POINTS} points",
        ),
    ],
    ids=["step_does_not_advance", "too_many_points", "stuck_below_sigma_max"],
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
