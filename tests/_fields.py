"""Fixtures shared by the field tables, ``tests/test_{amount,integer,real}_fields.py``.

A table row builds a valid model or JSON config from these with one field
replaced by the value under test.
"""

from __future__ import annotations

import json
from fractions import Fraction

from ofasim import cli

BIDS = (Fraction(5), Fraction(4))
IID = {"n": 2, "q": 0.5, "v": Fraction(10), "bids": BIDS}
NORMAL = {"n": 2, "v": 10.0, "sigma": 1.0, "bids": BIDS}
SCENARIO = {"gamma": 1000, "gas_price": Fraction(0), "rival_ops": ((Fraction(3), 1),)}

IID_JSON = {"n": 2, "q": 0.5, "v": "10", "bids": ["5", "4"]}
NORMAL_JSON = {"n": 2, "v": "10", "sigma": 1.0, "bids": ["5", "4"]}
RIVAL_JSON = {"bid": "3", "gas_reserved": 1}
SPOOF_JSON = {"gamma": 1000, "rivals": [RIVAL_JSON]}


def settle_json(op=None, schedule=None, **top):
    op = {"solver_id": "a", "bid": "5", "gas_reserved": 100, **(op or {})}
    schedule = {"tx_gas_limit": 1000, "user_gas_consumed": 0, **(schedule or {})}
    return {"schema": "settle/1", "schedule": schedule, "solver_ops": [op], **top}


def simulate_json(kind, model, **top):
    model = {"kind": kind, **model}
    return {"schema": "simulate/1", "seed": 1, "trials": 10, "model": model, **top}


def run_cli(tmp_path, config):
    """``cli.main``'s exit code on ``config``, written to a file under ``tmp_path``."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return cli.main([config["schema"].split("/")[0], str(path)])


def assert_cli_refuses(tmp_path, capsys, config, message):
    """The CLI ends in exit 1, nothing on stdout and one ``error:`` line
    that ends in the library's ``message``."""
    assert run_cli(tmp_path, config) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.err.endswith(f": {message}\n")
