"""Tests for the Monte-Carlo and discrete-event runners.

Statistical comparisons use 3-standard-error bands against independently
derived closed forms; determinism checks require bit-identical reports.
"""

from __future__ import annotations

import tracemalloc
from fractions import Fraction

import pytest

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
from ofasim.money import format_amount, parse_amount
from ofasim.simulation import (
    CHAIN_ACCESS_KINDS,
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

    def test_jobs_do_not_change_results(self):
        config = SimConfig(trials=100_000, seed=20_240_817, model=_iid())
        assert run_iid_failure(config, jobs=1) == run_iid_failure(config, jobs=4)

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
        "v, sigma", [(100.0, float("nan")), (100.0, float("inf")), (float("nan"), 5.0)]
    )
    def test_non_finite_parameters_rejected(self, v, sigma):
        # a NaN sigma used to pass and yield an all-revert report
        with pytest.raises(ValueError, match="v and sigma must be finite"):
            NormalValuation(n=2, v=v, sigma=sigma, bids=(Fraction(99),) * 2)

    def test_jobs_do_not_change_results(self):
        model = NormalValuation(n=3, v=100.0, sigma=5.0, bids=(Fraction(99),) * 3)
        config = SimConfig(trials=60_000, seed=123, model=model)
        assert run_normal_valuation(config, jobs=1) == run_normal_valuation(
            config, jobs=3
        )


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
        with pytest.raises(ValueError, match="fit at least one"):
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
        assert report["chain_quiet_between_order_and_guarantee"]

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


@pytest.mark.parametrize("gas", [0, -5])
def test_throughput_gas_per_op_must_be_positive(gas):
    with pytest.raises(ValueError, match="gas_per_op must be a positive integer"):
        ThroughputSweep(gammas=(1_000_000,), gas_per_op=gas)


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
    # 200,000 trials x 50 ops is 80 MB as one float matrix; drawn in blocks
    # and reduced to per-pattern sums, a run stays far below that
    config = SimConfig(trials=200_000, seed=3, model=MEMORY_MODELS[kind])
    tracemalloc.start()
    try:
        run_simulation(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
