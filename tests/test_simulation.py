"""Tests for the Monte-Carlo and discrete-event runners.

Statistical comparisons use 3-standard-error bands against independently
derived closed forms; determinism checks require bit-identical reports.
"""

from __future__ import annotations

import json
import math
import re
import tracemalloc
from fractions import Fraction

import pytest

from ofasim import cli, simulation
from ofasim.auction import Behavior, GasSchedule, SolverOperation
from ofasim.censorship import CensorshipScenario, censorship_resistance
from ofasim.equilibrium import (
    BaselineGame,
    DiscreteTimeGame,
    baseline_utility,
    closed_form_bid,
    conditional_success_value,
    deviation_utility,
    discrete_time_utility,
    normal_cdf,
)
from ofasim.escrow import required_escrow
from ofasim.money import format_amount, parse_amount
from ofasim.scenarios import MAX_GRID_POINTS
from ofasim.simulation import (
    CHAIN_ACCESS_KINDS,
    MAX_RUNG_OPS,
    IidFailure,
    NormalValuation,
    SimConfig,
    SpoofAttack,
    ThroughputSweep,
    Timeline,
    TimelineConfig,
    TimelineEvent,
    TimelineEventKind,
    chain_quiet_between_order_and_guarantee,
    median_failure_costs,
    run_iid_failure,
    run_normal_valuation,
    run_simulation,
    run_spoof_attack,
    run_throughput_sweep,
    run_timeline,
)

PHI = Fraction(3, 4_000)


def within_three_se(stat: dict, expected: float) -> bool:
    return abs(stat["mean"] - expected) <= 3 * stat["std_error"]


class TestSimConfig:
    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError, match="trials"):
            SimConfig(trials=0, seed=1, model=_iid())

    def test_rejects_trials_beyond_int64(self):
        with pytest.raises(ValueError, match=re.escape(f"trials must lie in [1, {2**63 - 1}]")):
            SimConfig(trials=2**63, seed=1, model=_iid())

    def test_iid_run_at_two_to_the_62_trials_completes(self):
        # one multinomial draw: time does not grow with the trial count
        report = run_iid_failure(SimConfig(trials=2**62, seed=1, model=_iid(n=3)))
        assert report["total_payoff"]["trials"] == 2**62
        assert 0 < report["success_probability"]["std_error"] < 1e-8

    def test_rejects_out_of_range_seed(self):
        with pytest.raises(ValueError, match="seed"):
            SimConfig(trials=1, seed=-1, model=_iid())
        with pytest.raises(ValueError, match="seed"):
            SimConfig(trials=1, seed=2**64, model=_iid())

    def test_runner_rejects_wrong_model(self):
        config = SimConfig(trials=1, seed=1, model=_iid())
        with pytest.raises(TypeError, match="Timeline"):
            run_timeline(config)


def _iid(n=2, q=0.5, v=100, bid=None):
    game = BaselineGame(n=n, q=Fraction(q).limit_denominator(), v=Fraction(v))
    bid = closed_form_bid(game) if bid is None else bid
    return IidFailure(n=n, q=q, v=Fraction(v), bids=(bid,) * n)


class TestIidFailure:
    def test_bids_must_match_n(self):
        with pytest.raises(ValueError, match="exactly n entries"):
            IidFailure(n=3, q=0.5, v=Fraction(100), bids=(Fraction(1),))

    def test_total_payoff_matches_closed_form(self):
        config = SimConfig(trials=100_000, seed=20_240_817, model=_iid())
        report = run_iid_failure(config)
        game = BaselineGame(n=2, q=Fraction(1, 2), v=Fraction(100))
        expected = float(baseline_utility(game, closed_form_bid(game)))
        assert within_three_se(report["total_payoff"], expected)

    def test_deviant_payoff_matches_closed_form(self):
        game = BaselineGame(n=3, q=Fraction(2, 5), v=Fraction(100))
        bid = closed_form_bid(game)
        epsilon = Fraction(1)
        model = IidFailure(
            n=3, q=0.4, v=Fraction(100), bids=(bid + epsilon, bid, bid)
        )
        report = run_iid_failure(SimConfig(trials=200_000, seed=11, model=model))
        deviant = report["per_solver"]["s000"]
        expected = float(deviation_utility(game, bid, epsilon))
        assert within_three_se(deviant, expected)

    def test_reliable_execution_always_succeeds(self):
        model = IidFailure(
            n=3, q=0.01, v=Fraction(100), bids=(Fraction(90),) * 3
        )
        report = run_iid_failure(SimConfig(trials=20_000, seed=3, model=model))
        assert report["success_probability"]["mean"] >= 1 - 5e-4
        assert within_three_se(report["beneficiary"], 90.0)

    def test_report_is_deterministic(self):
        config = SimConfig(trials=30_000, seed=77, model=_iid())
        assert run_iid_failure(config) == run_iid_failure(config)

    def test_per_solver_keys_follow_execution_order(self):
        model = IidFailure(
            n=3, q=0.5, v=Fraction(100), bids=(Fraction(10), Fraction(30), Fraction(20))
        )
        report = run_iid_failure(SimConfig(trials=16, seed=5, model=model))
        assert list(report["per_solver"]) == ["s001", "s002", "s000"]


class TestNormalValuation:
    def test_total_payoff_matches_truncated_normal_oracle(self):
        n, v, sigma, bid = 4, 100.0, 5.0, 101.0
        model = NormalValuation(n=n, v=v, sigma=sigma, bids=(Fraction(101),) * n)
        report = run_normal_valuation(SimConfig(trials=200_000, seed=5, model=model))
        cdf = normal_cdf((bid - v) / sigma)
        win_prob = 1 - cdf**n
        expected_value = conditional_success_value(v, sigma, bid)
        expected = win_prob * (expected_value - bid) - cdf**n * bid
        assert within_three_se(report["total_payoff"], expected)

    def test_equal_bids_saturating_budget_fix_the_payout(self):
        # with every bid equal and reserved gas exactly filling the budget,
        # the beneficiary receives the common bid in every outcome pattern
        model = NormalValuation(n=3, v=100.0, sigma=5.0, bids=(Fraction(101),) * 3)
        report = run_normal_valuation(SimConfig(trials=5_000, seed=9, model=model))
        assert report["beneficiary"]["mean"] == 101.0
        assert report["beneficiary"]["std_error"] == 0.0

    def test_unit_sigma_per_execution_statistic_matches_closed_form(self):
        n, v, bid = 3, 100.0, Fraction(201, 2)
        model = NormalValuation(n=n, v=v, sigma=1.0, bids=(bid,) * n)
        report = run_normal_valuation(SimConfig(trials=300_000, seed=9, model=model))
        expected = discrete_time_utility(
            DiscreteTimeGame(n=n, v=v, sigma=1.0), float(bid)
        )
        assert within_three_se(report["scaled_per_execution_payoff"], expected)

    @pytest.mark.parametrize(
        "v, sigma, message",
        [
            pytest.param(100.0, float("nan"), "sigma must lie in (0, inf)", id="100.0-nan"),
            pytest.param(100.0, float("inf"), "sigma must lie in (0, inf)", id="100.0-inf"),
            pytest.param(float("nan"), 5.0, "v must lie in (-inf, inf)", id="nan-5.0"),
            # math.isfinite used to raise OverflowError here
            pytest.param(
                1.0, 10**400, "sigma is too large for a float", id="int-sigma-beyond-float"
            ),
        ],
    )
    def test_non_finite_parameters_rejected(self, v, sigma, message):
        # a NaN sigma used to pass and yield an all-revert report
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            NormalValuation(n=2, v=v, sigma=sigma, bids=(Fraction(99),) * 2)

    @pytest.mark.parametrize(
        "v, sigma, bids",
        [
            (1e17, 1.0, (Fraction(10**17),)),  # no float lies within sigma of v
            (100.0, 1.0, (Fraction(10**17), Fraction(99))),  # nor of the top bid
            (-1e17, 1.0, (Fraction(0),)),
            (1.0, 2**-41, (Fraction(1),)),
        ],
    )
    def test_sigma_below_float_resolution_rejected(self, v, sigma, bids):
        # such a run used to report X − b = 16 for every winner at v = b = 1e17
        with pytest.raises(ValueError, match=r"^sigma must be at least 2\*\*-40 times"):
            NormalValuation(n=len(bids), v=v, sigma=sigma, bids=bids)

    def test_sigma_at_float_resolution_accepted(self):
        bids = (Fraction(2**40), Fraction(1))
        model = NormalValuation(n=2, v=1.0, sigma=1.0, bids=bids)
        report = run_normal_valuation(SimConfig(trials=100, seed=3, model=model))
        assert math.isfinite(report["total_payoff"]["mean"])


class TestThroughputSweep:
    GAMMAS = (1_000_000, 2_000_000, 5_000_000, 10_000_000)

    def run(self, trials=4_000, seed=20_240_817):
        model = ThroughputSweep(gammas=self.GAMMAS)
        return run_throughput_sweep(SimConfig(trials=trials, seed=seed, model=model))

    def test_array_refills_to_capacity(self):
        rows = self.run(trials=64)["rows"]
        assert [row["ops"] for row in rows] == [10, 20, 50, 100]

    def test_median_bid_of_ten_op_array(self):
        rows = self.run(trials=64)["rows"]
        # 10 ops, bids linear 100..50, median rank 5 → bid 100 − 4·(50/9)
        assert rows[0]["median_bid"] == format_amount(Fraction(700, 9))

    def test_mean_cost_strictly_decreases_with_budget(self):
        rows = self.run()["rows"]
        means = [row["mean_failure_cost"]["mean"] for row in rows]
        assert all(a > b for a, b in zip(means, means[1:]))

    def test_first_and_last_rungs_are_separated(self):
        rows = self.run()["rows"]
        first, last = rows[0]["mean_failure_cost"], rows[-1]["mean_failure_cost"]
        assert first["mean"] - 3 * first["std_error"] > last["mean"] + 3 * last[
            "std_error"
        ]

    def test_mean_cost_matches_exact_expectation(self):
        model = ThroughputSweep(gammas=(1_000_000,))
        report = run_throughput_sweep(
            SimConfig(trials=40_000, seed=8, model=model)
        )
        row = report["rows"][0]
        count, q = 10, Fraction(1, 2)
        step = (model.bid_high - model.bid_low) / (count - 1)
        bids = [model.bid_high - step * i for i in range(count)]
        median_index = 4
        share = Fraction(model.gas_per_op, 1_000_000)
        below = bids[median_index + 1 :]
        expected = sum(
            (1 - q) * q**k * (bids[median_index] - bid) * share
            for k, bid in enumerate(below)
        ) + q ** len(below) * bids[median_index] * share
        assert within_three_se(row["mean_failure_cost"], float(expected))

    def test_budget_must_fit_template_op(self):
        with pytest.raises(ValueError, match=r"^gammas\[0\] must lie in \[100000, 100000099999\]$"):
            ThroughputSweep(gammas=(50_000,))


def spoof_scenario(**kwargs):
    defaults = dict(
        gamma=1_000_000,
        gas_price=PHI,
        rival_ops=((Fraction(100), 100_000),),
        attacker_value=Fraction(50),
    )
    defaults.update(kwargs)
    return CensorshipScenario(**defaults)


def run_spoof(**model_kwargs):
    model = SpoofAttack(scenario=model_kwargs.pop("scenario", spoof_scenario()), **model_kwargs)
    return run_spoof_attack(SimConfig(trials=1, seed=1, model=model))


class TestSpoofAttack:
    def test_full_budget_reservation_blocks_all_rivals(self):
        report = run_spoof()
        assert report["attacker_admitted"]
        assert report["rivals_admitted"] == []
        assert report["rivals_blocked"]
        assert report["attack_winner"] is None

    def test_blocking_cost_is_bid_plus_gas_burn(self):
        report = run_spoof()
        # reverting alone with the whole budget: failure cost is the full
        # bid (101), gas burn is price × budget (750)
        assert report["attacker_total_cost"] == format_amount(
            Fraction(101) + PHI * 1_000_000
        )

    def test_realized_cost_exceeds_resistance_floor(self):
        scenario = spoof_scenario()
        report = run_spoof(scenario=scenario)
        floor = censorship_resistance(scenario) + scenario.attacker_value
        assert parse_amount(report["attacker_total_cost"]) > floor

    def test_cheapest_blocking_reservation_has_exact_cost(self):
        gas = 1_000_000 - 100_000 + 1
        report = run_spoof(attacker_gas=gas)
        assert report["rivals_blocked"]
        expected = Fraction(101) * Fraction(gas, 1_000_000) + PHI * gas
        assert parse_amount(report["attacker_total_cost"]) == expected

    def test_reserving_exactly_the_complement_leaves_the_cheapest_rival(self):
        report = run_spoof(attacker_gas=1_000_000 - 100_000)
        assert not report["rivals_blocked"]
        assert report["rivals_admitted"] == ["r000"]
        assert report["attack_winner"] == "r000"

    def test_undersized_reservation_leaves_a_rival(self):
        report = run_spoof(attacker_gas=1_000_000 - 100_000 - 1)
        assert not report["rivals_blocked"]
        assert report["attack_winner"] == "r000"

    def test_failed_outbid_loses_to_the_rival(self):
        # margin 0 ties the best rival's bid; the rival reserves less gas and
        # therefore executes first
        report = run_spoof(bid_margin=Fraction(0))
        assert report["attack_winner"] == "r000"

    def test_a_margin_below_minus_the_best_rival_bid_is_refused_when_built(self):
        # it used to be built and fail in the runner with "bid must be non-negative"
        scenario = spoof_scenario(rival_ops=((Fraction(3), 1), (Fraction(1), 1)))
        message = "best rival bid + bid_margin must be non-negative"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SpoofAttack(scenario=scenario, bid_margin=Fraction(-5))
        # a margin down to minus the best rival bid still runs, at a bid of 0
        report = run_spoof(scenario=scenario, bid_margin=Fraction(-3))
        assert report["attack_winner"] == "r000"

    def test_successful_censor_pays_its_bid_to_the_beneficiary(self):
        report = run_spoof(attacker_behavior=Behavior.SUCCEED)
        assert report["attack_winner"] == "attacker"
        assert report["beneficiary_with_attack"] == "101"
        assert parse_amount(report["beneficiary_with_attack"]) > parse_amount(
            report["beneficiary_without_attack"]
        )

    def test_prediction_matches_censorship_module(self):
        rivals = (
            (Fraction(100), 100_000),
            (Fraction(120), 300_000),
            (Fraction(80), 50_000),
        )
        scenario = spoof_scenario(rival_ops=rivals)
        report = run_spoof(scenario=scenario)
        assert report["predicted_resistance"] == format_amount(
            censorship_resistance(scenario)
        )
        assert report["attacker_bid"] == "121"

    def test_a_scenario_without_rivals_is_refused_at_construction(self):
        with pytest.raises(ValueError, match="^censorship scenario needs at least one rival$"):
            SpoofAttack(scenario=spoof_scenario(rival_ops=()))

    def test_attacker_gas_validated_against_budget(self):
        with pytest.raises(ValueError, match="attacker_gas"):
            SpoofAttack(scenario=spoof_scenario(), attacker_gas=1_000_001)

    def test_deterministic_report(self):
        a = run_spoof_attack(SimConfig(trials=1, seed=1, model=SpoofAttack(scenario=spoof_scenario())))
        b = run_spoof_attack(SimConfig(trials=500, seed=99, model=SpoofAttack(scenario=spoof_scenario())))
        assert a == b


class TestTimeline:
    def test_default_latencies_deliver_guarantee_at_400ms(self):
        report = run_timeline(
            SimConfig(trials=1, seed=1, model=Timeline(config=TimelineConfig()))
        )
        assert report["guarantee_issued_at_ms"] == 350
        assert report["guarantee_at_ms"] == 400
        assert report["chain_quiet_between_order_and_guarantee"]

    def test_event_sequence(self):
        report = run_timeline(
            SimConfig(trials=1, seed=1, model=Timeline(config=TimelineConfig()))
        )
        sequence = [(event["at_ms"], event["kind"]) for event in report["events"]]
        assert sequence == [
            (0, "escrow_prefetch"),
            (0, "order_placed"),
            (50, "order_received"),
            (50, "auction_opened"),
            (350, "auction_closed"),
            (350, "guarantee_issued"),
            (400, "guarantee_received"),
            (400, "execution_submitted"),
            (450, "settlement_confirmed"),
        ]

    def test_custom_latencies(self):
        config = TimelineConfig(
            user_latency_ms=10, auction_duration_ms=100, execution_delay_ms=20
        )
        report = run_timeline(
            SimConfig(trials=1, seed=1, model=Timeline(config=config))
        )
        assert report["guarantee_issued_at_ms"] == 110
        assert report["guarantee_at_ms"] == 120
        sequence = {e["kind"]: e["at_ms"] for e in report["events"]}
        assert sequence["execution_submitted"] == 130
        assert sequence["settlement_confirmed"] == 150

    def test_auction_window_filters_insolvent_bids_from_cached_escrow(self):
        schedule = GasSchedule(
            tx_gas_limit=1_100_000, user_gas_consumed=100_000, gas_price=PHI
        )
        candidates = (
            SolverOperation("a", Fraction(100), 500_000, 400_000),
            SolverOperation("b", Fraction(80), 500_000, 500_000),
            SolverOperation("c", Fraction(60), 500_000, 500_000),
        )
        snapshot = {"a": Fraction(10_000), "b": Fraction(0), "c": Fraction(10_000)}
        report = run_timeline(
            SimConfig(
                trials=1,
                seed=1,
                model=Timeline(
                    config=TimelineConfig(),
                    schedule=schedule,
                    candidates=candidates,
                    escrow_snapshot=snapshot,
                ),
            )
        )
        kinds = [(e["kind"], e["note"]) for e in report["events"]]
        assert ("bid_admitted", "a escrow ok (cached)") in kinds
        assert ("bid_rejected", "b insufficient escrow (cached)") in kinds
        # guarantee covers the two admitted ops: (100·5e5 + 60·5e5) / 1e6
        assert report["guarantee_value"] == "80"
        assert ("guarantee_issued", "value 80") in kinds
        assert report["chain_quiet_between_order_and_guarantee"]

    def test_snapshot_equal_to_the_required_escrow_admits(self):
        schedule = GasSchedule(tx_gas_limit=1_100_000, user_gas_consumed=100_000, gas_price=PHI)
        candidates = (
            SolverOperation("a", Fraction(100), 500_000),
            SolverOperation("b", Fraction(80), 400_000),
        )
        snapshot = {"a": Fraction(0), "b": required_escrow(Fraction(80), 400_000, 1_000_000, PHI)}
        timeline = Timeline(TimelineConfig(), schedule, candidates, snapshot)
        report = run_timeline(SimConfig(trials=1, seed=1, model=timeline))
        events = [(e["kind"], e["note"]) for e in report["events"]]
        assert ("bid_rejected", "a insufficient escrow (cached)") in events
        assert ("bid_admitted", "b escrow ok (cached)") in events
        assert report["guarantee_value"] == "32"  # 80 · 400,000 / 1,000,000

    def test_an_auction_without_a_schedule_is_refused(self):
        op = SolverOperation("a", Fraction(1), 100_000)
        for fields in ({"candidates": (op,)}, {"escrow_snapshot": {"a": Fraction(1)}}):
            with pytest.raises(
                ValueError, match="^solver ops and an escrow snapshot need a schedule$"
            ):
                Timeline(TimelineConfig(), **fields)
        # empty is no auction: it stays valid, as the default is
        report = run_timeline(
            SimConfig(1, 1, Timeline(TimelineConfig(), candidates=(), escrow_snapshot={}))
        )
        assert report["guarantee_value"] is None

    def test_quiet_check_flags_chain_access_inside_the_window(self):
        events = [
            TimelineEvent(0, TimelineEventKind.ESCROW_PREFETCH),
            TimelineEvent(50, TimelineEventKind.ORDER_RECEIVED),
            TimelineEvent(60, TimelineEventKind.EXECUTION_SUBMITTED),
            TimelineEvent(350, TimelineEventKind.GUARANTEE_ISSUED),
        ]
        assert not chain_quiet_between_order_and_guarantee(events)

    def test_quiet_check_ignores_access_outside_the_window(self):
        events = [
            TimelineEvent(0, TimelineEventKind.ESCROW_PREFETCH),
            TimelineEvent(50, TimelineEventKind.ORDER_RECEIVED),
            TimelineEvent(350, TimelineEventKind.GUARANTEE_ISSUED),
            TimelineEvent(400, TimelineEventKind.EXECUTION_SUBMITTED),
        ]
        assert chain_quiet_between_order_and_guarantee(events)

    def test_chain_access_kinds_cover_reads_and_writes(self):
        assert TimelineEventKind.ESCROW_PREFETCH in CHAIN_ACCESS_KINDS
        assert TimelineEventKind.EXECUTION_SUBMITTED in CHAIN_ACCESS_KINDS
        assert TimelineEventKind.SETTLEMENT_CONFIRMED in CHAIN_ACCESS_KINDS
        assert TimelineEventKind.ORDER_RECEIVED not in CHAIN_ACCESS_KINDS


class TestDispatcher:
    def test_each_model_routes_to_its_runner(self):
        reports = [
            run_simulation(SimConfig(trials=16, seed=1, model=_iid())),
            run_simulation(
                SimConfig(
                    trials=16,
                    seed=1,
                    model=NormalValuation(
                        n=2, v=10.0, sigma=1.0, bids=(Fraction(10),) * 2
                    ),
                )
            ),
            run_simulation(
                SimConfig(
                    trials=16, seed=1, model=ThroughputSweep(gammas=(1_000_000,))
                )
            ),
            run_simulation(
                SimConfig(trials=1, seed=1, model=SpoofAttack(scenario=spoof_scenario()))
            ),
            run_simulation(
                SimConfig(trials=1, seed=1, model=Timeline(config=TimelineConfig()))
            ),
        ]
        assert [report["model"] for report in reports] == [
            "iid_failure",
            "normal_valuation",
            "throughput_sweep",
            "spoof_attack",
            "timeline",
        ]

    @pytest.mark.parametrize(
        "model",
        [
            _iid(),
            NormalValuation(n=3, v=100.0, sigma=5.0, bids=(Fraction(99),) * 3),
        ],
        ids=["iid", "normal"],
    )
    def test_jobs_do_not_change_results(self, model):
        config = SimConfig(trials=60_000, seed=123, model=model)
        assert run_simulation(config, jobs=3) == run_simulation(config)


def _spoof_model(**fields):
    return SpoofAttack(scenario=spoof_scenario(), **fields)


def _iid_model(**fields):
    defaults = {"n": 2, "q": 0.5, "v": Fraction(100), "bids": (Fraction(60),) * 2}
    return IidFailure(**{**defaults, **fields})


def _normal_model(**fields):
    defaults = {"n": 2, "v": 100.0, "sigma": 5.0, "bids": (Fraction(99),) * 2}
    return NormalValuation(**{**defaults, **fields})


# Each used to be accepted: converted with Fraction() or int(), or run as 1 or 0.
@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: _iid_model(v=100.0), "v must be an int or a Fraction, got float"),
        (lambda: _iid_model(v="100"), "v must be an int or a Fraction, got str"),
        (lambda: _iid_model(bids=(60.5, 60)), "bid must be an int or a Fraction, got float"),
        (lambda: _iid_model(bids=("60", 60)), "bid must be an int or a Fraction, got str"),
        (lambda: _iid_model(n=True, bids=(60,)), "n must be an int, got bool"),
        (lambda: _iid_model(gas_per_op=True), "gas_per_op must be an int, got bool"),
        (lambda: _iid_model(gas_price=0.5), "gas_price must be an int or a Fraction, got float"),
        (lambda: _normal_model(bids=(99.5, 99)), "bid must be an int or a Fraction, got float"),
        (lambda: _normal_model(bids=("99", 99)), "bid must be an int or a Fraction, got str"),
        (lambda: ThroughputSweep(gammas=(1_000_000.7,)), "gammas[0] must be an int, got float"),
        (lambda: ThroughputSweep(gammas=("2000000",)), "gammas[0] must be an int, got str"),
        (
            lambda: ThroughputSweep(gammas=(1_000_000,), bid_high=100.5),
            "bid_high must be an int or a Fraction, got float",
        ),
        (
            lambda: ThroughputSweep(gammas=(1_000_000,), bid_low=50.5),
            "bid_low must be an int or a Fraction, got float",
        ),
        (
            lambda: _spoof_model(bid_margin=0.1),
            "bid_margin must be an int or a Fraction, got float",
        ),
        (lambda: _spoof_model(attacker_gas=5e5), "attacker_gas must be an int, got float"),
        (
            lambda: TimelineConfig(user_latency_ms=True),
            "user_latency_ms must be an int, got bool",
        ),
        (
            lambda: Timeline(TimelineConfig(), escrow_snapshot={"a": 1.5}),
            "escrow snapshot amount must be an int or a Fraction, got float",
        ),
        (lambda: SimConfig(trials=True, seed=1, model=_iid()), "trials must be an int, got bool"),
        (lambda: SimConfig(trials=1, seed=False, model=_iid()), "seed must be an int, got bool"),
    ],
    ids=[
        "iid_float_v", "iid_str_v", "iid_float_bid", "iid_str_bid", "iid_bool_n",
        "iid_bool_gas_per_op", "iid_float_gas_price", "normal_float_bid", "normal_str_bid",
        "throughput_float_gamma", "throughput_str_gamma", "throughput_float_bid_high",
        "throughput_float_bid_low", "spoof_float_margin",
        "spoof_float_attacker_gas", "timeline_bool_latency", "timeline_float_snapshot",
        "bool_trials", "bool_seed",
    ],
)
def test_inexact_inputs_are_refused(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        build()


def test_int_amounts_are_accepted_where_fractions_are():
    ints = IidFailure(n=2, q=0.5, v=100, bids=(60, 61), gas_price=0)
    fractions = IidFailure(
        n=2, q=0.5, v=Fraction(100), bids=(Fraction(60), Fraction(61)), gas_price=Fraction(0)
    )
    assert ints == fractions
    assert run_iid_failure(SimConfig(trials=1_000, seed=7, model=ints)) == run_iid_failure(
        SimConfig(trials=1_000, seed=7, model=fractions)
    )


# A bool used to run as 1.0 or 0.0, and a numeric string as its number.
@pytest.mark.parametrize(
    "build, field",
    [
        (lambda bad: _iid_model(q=bad), "q"),
        (lambda bad: _normal_model(v=bad), "v"),
        (lambda bad: _normal_model(sigma=bad), "sigma"),
        (lambda bad: ThroughputSweep(gammas=(1_000_000,), q=bad), "q"),
    ],
    ids=["iid_q", "normal_v", "normal_sigma", "throughput_q"],
)
@pytest.mark.parametrize("bad", [True, False, "0.5", None], ids=repr)
def test_float_parameters_refuse_a_bool_or_a_non_number(build, field, bad):
    message = f"{field} must be a real number, got {type(bad).__name__}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(bad)


def test_float_parameters_take_any_real_number():
    assert _normal_model(v=100, sigma=5) == _normal_model(v=100.0, sigma=5.0)
    assert _iid_model(q=Fraction(1, 2)).q == 0.5
    assert ThroughputSweep(gammas=(1_000_000,), q=Fraction(1, 4)).q == 0.25


@pytest.mark.parametrize(
    "gas, message",
    [
        (0, "gas_per_op must lie in [1, inf]"),
        (-5, "gas_per_op must lie in [1, inf]"),
        (True, "gas_per_op must be an int, got bool"),
    ],
    ids=["0", "-5", "True"],
)
def test_throughput_gas_per_op_must_be_positive(gas, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ThroughputSweep(gammas=(1_000_000,), gas_per_op=gas)


def test_winner_far_above_its_bid_keeps_finite_statistics():
    # X − bid is about 1e160 and its square is beyond the float range; the
    # winners' X are summed about v, so only σ² must fit
    model = NormalValuation(n=1, v=1e160, sigma=1e150, bids=(Fraction(25, 2),))
    report = run_normal_valuation(SimConfig(trials=1000, seed=4, model=model))
    stat = report["per_solver"]["s000"]
    assert abs(stat["mean"] - 1e160) <= 3 * stat["std_error"]
    assert stat["std_error"] == pytest.approx(1e150 / math.sqrt(1000), rel=0.1)


def test_normal_valuation_rejects_v_beyond_float_range():
    with pytest.raises(ValueError, match="v is too large for a float"):
        NormalValuation(n=1, v=Fraction(10) ** 400, sigma=1.0, bids=(Fraction(1),))


MEMORY_MODELS = {
    "iid": IidFailure(
        n=50, q=0.5, v=Fraction(100), bids=tuple(Fraction(100 - i) for i in range(50))
    ),
    "normal": NormalValuation(
        n=50, v=100.0, sigma=10.0, bids=tuple(Fraction(100 - i) for i in range(50))
    ),
    # 50 ops per rung: 25 of them below the median op are drawn
    "throughput": ThroughputSweep(gammas=(5_000_000, 5_000_000)),
}


@pytest.mark.parametrize("kind", MEMORY_MODELS)
def test_monte_carlo_memory_does_not_grow_with_trials(kind):
    # 200,000 trials x 50 ops would be 80 MB as one float matrix; a run
    # draws one multinomial of pattern counts and, for the valuation model,
    # its winners in bounded batches, so it stays far below that
    config = SimConfig(trials=200_000, seed=3, model=MEMORY_MODELS[kind])
    tracemalloc.start()
    try:
        run_simulation(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_normal_valuation_memory_is_flat_at_five_million_trials():
    config = SimConfig(trials=5_000_000, seed=5, model=MEMORY_MODELS["normal"])
    tracemalloc.start()
    try:
        report = run_simulation(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report["total_payoff"]["trials"] == 5_000_000
    assert peak < 16 * 2**20


class TestModelRefusals:
    def test_normal_valuation_needs_a_positive_sigma(self):
        with pytest.raises(ValueError, match=r"^sigma must lie in \(0, inf\)$"):
            _normal_model(sigma=0)

    def test_iid_failure_needs_a_solver(self):
        with pytest.raises(ValueError, match=re.escape("n must lie in [1, inf]")):
            _iid_model(n=0, bids=())

    def test_throughput_sweep_needs_a_gamma(self):
        with pytest.raises(ValueError, match="^gammas must be non-empty$"):
            ThroughputSweep(gammas=())

    @pytest.mark.parametrize("q", [0, 1, 1.5])
    def test_throughput_q_lies_strictly_inside_the_unit_interval(self, q):
        with pytest.raises(ValueError, match=re.escape("q must lie in (0, 1)")):
            ThroughputSweep(gammas=(1_000_000,), q=q)

    # each was accepted and failed only later, in a runner, or never
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: IidFailure(n=1, q=0.5, v=1, bids=(-1,)), "bid must be non-negative"),
            (lambda: _iid_model(gas_price=Fraction(-1)), "gas_price must be non-negative"),
            (lambda: _normal_model(gas_price=Fraction(-1)), "gas_price must be non-negative"),
            (lambda: _iid_model(v=-5), "v must be non-negative"),
            (
                lambda: Timeline(
                    config=TimelineConfig(),
                    schedule=GasSchedule(tx_gas_limit=1000, user_gas_consumed=0),
                    escrow_snapshot={"a": Fraction(-3)},
                ),
                "escrow snapshot amount must be non-negative",
            ),
        ],
        ids=["iid_bid", "iid_gas_price", "normal_gas_price", "iid_v", "escrow_snapshot"],
    )
    def test_a_negative_amount_is_refused_when_built(self, build, message):
        with pytest.raises(ValueError) as excinfo:
            build()
        assert str(excinfo.value) == message

    def test_throughput_bids_must_be_ordered(self):
        with pytest.raises(ValueError, match="^need 0 <= bid_low <= bid_high$"):
            ThroughputSweep(gammas=(1_000_000,), bid_high=Fraction(50), bid_low=Fraction(51))

    def test_median_failure_costs_needs_one_op_of_gas(self):
        model = ThroughputSweep(gammas=(1_000_000,))
        with pytest.raises(ValueError, match=r"^gamma must lie in \[100000, 100000099999\]$"):
            median_failure_costs(model, model.gas_per_op - 1)
        with pytest.raises(ValueError, match="^gamma must be an int, got float$"):
            median_failure_costs(model, 1.5e6)

    @pytest.mark.parametrize(
        "runner, wanted",
        [
            (run_iid_failure, "IidFailure"),
            (run_normal_valuation, "NormalValuation"),
            (run_throughput_sweep, "ThroughputSweep"),
            (run_spoof_attack, "SpoofAttack"),
        ],
    )
    def test_each_runner_refuses_another_model(self, runner, wanted):
        config = SimConfig(trials=10, seed=1, model=Timeline(TimelineConfig()))
        message = f"^{runner.__name__} requires an? {wanted} model$"
        with pytest.raises(TypeError, match=message):
            runner(config)

    def test_a_statistic_beyond_the_float_range_is_refused(self):
        def config(big):
            model = _iid_model(n=3, v=big, bids=(big, Fraction(big, 2), Fraction(big, 3)))
            return SimConfig(trials=1000, seed=1, model=model)

        # every payoff fits a float; at 1e160 their squared deviations do not
        assert math.isfinite(run_iid_failure(config(10**150))["total_payoff"]["std_error"])
        with pytest.raises(ValueError, match="^a Monte-Carlo statistic does not fit a float$"):
            run_iid_failure(config(10**160))

    def test_run_simulation_refuses_an_unknown_model(self):
        config = SimConfig(trials=10, seed=1, model="iid_failure")
        with pytest.raises(TypeError, match="^unknown model type: str$"):
            run_simulation(config)


class TestRungBound:
    def test_a_rung_may_hold_max_rung_ops(self):
        # built, not run: a rung this wide takes about 0.7 s and 130 MiB
        widest = (MAX_RUNG_OPS + 1) * 7 - 1
        assert ThroughputSweep(gammas=(7, widest), gas_per_op=7).gammas == (7, widest)
        assert widest // 7 == MAX_RUNG_OPS

    @pytest.mark.parametrize("gas", [1, 7, 100_000])
    def test_one_more_op_is_refused_before_any_rung_is_built(self, gas):
        gamma = (MAX_RUNG_OPS + 1) * gas
        message = f"gammas[1] must lie in [{gas}, {gamma - 1}]"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ThroughputSweep(gammas=(gas, gamma), gas_per_op=gas)

    def test_one_more_gamma_than_max_grid_points_is_refused_before_any_rung_runs(
        self, monkeypatch, tmp_path, capsys
    ):
        assert cli.MAX_GRID_POINTS is MAX_GRID_POINTS
        assert len(ThroughputSweep(gammas=(7,) * MAX_GRID_POINTS, gas_per_op=7).gammas) == 10_000
        message = f"gammas must hold at most {MAX_GRID_POINTS} entries"
        with pytest.raises(ValueError, match=f"^{message}$"):
            ThroughputSweep(gammas=(7,) * (MAX_GRID_POINTS + 1), gas_per_op=7)

        def no_rung(config):
            raise AssertionError("a rung ran")

        monkeypatch.setattr(simulation, "run_throughput_sweep", no_rung)
        gammas = [100_000] * (MAX_GRID_POINTS + 1)
        config = {"schema": "simulate/1", "seed": 1, "trials": 10,
                  "model": {"kind": "throughput_sweep", "gammas": gammas}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        for argv, context in (
            (["sweep", "throughput", "--gammas", ",".join(map(str, gammas))], ""),
            (["simulate", str(path)], "config.model: "),
        ):
            assert cli.main(argv) == 1
            assert capsys.readouterr() == ("", f"error: {context}{message}\n")

    @pytest.mark.parametrize("gas", [1, 7, 100_000])
    def test_median_failure_costs_refuses_one_more_op(self, gas):
        gamma = (MAX_RUNG_OPS + 1) * gas
        message = f"gamma must lie in [{gas}, {gamma - 1}]"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            median_failure_costs(ThroughputSweep(gammas=(gas,), gas_per_op=gas), gamma)
