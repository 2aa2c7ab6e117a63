"""Tests for the bidding-theory module.

Closed forms are checked exactly with rational inputs; numeric identities are
checked against independently derived hand values, quadrature oracles and
finite differences.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy import stats

from ofasim.equilibrium import (
    BRACKET_SIGMAS,
    BaselineGame,
    DiscreteTimeGame,
    _golden_section_argmax,
    baseline_utility,
    closed_form_bid,
    conditional_success_value,
    deviation_utility,
    discrete_time_utility,
    normal_cdf,
    normal_pdf,
    normal_sf,
    optimal_bid_details,
    rank_sum_utility,
    simplified_utility,
    utility_gradient,
)


class TestNormalHelpers:
    @pytest.mark.parametrize("z", [-8.0, -3.5, -1.0, 0.0, 0.7, 2.0, 5.0, 8.0])
    def test_cdf_matches_scipy(self, z):
        assert normal_cdf(z) == pytest.approx(stats.norm.cdf(z), rel=1e-13, abs=1e-18)

    @pytest.mark.parametrize("z", [-8.0, -3.5, -1.0, 0.0, 0.7, 2.0, 5.0, 8.0])
    def test_sf_matches_scipy(self, z):
        assert normal_sf(z) == pytest.approx(stats.norm.sf(z), rel=1e-13, abs=1e-18)

    @pytest.mark.parametrize("z", [-6.0, -0.5, 0.0, 1.3, 6.0])
    def test_cdf_plus_sf_is_one(self, z):
        assert normal_cdf(z) + normal_sf(z) == pytest.approx(1.0, abs=1e-15)

    def test_pdf_at_zero(self):
        assert normal_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-15)


class TestBaselineGame:
    def test_rejects_single_bidder(self):
        with pytest.raises(ValueError, match=r"^n must lie in \[2, inf\]$"):
            BaselineGame(n=1, q=Fraction(1, 2), v=Fraction(100))

    def test_rejects_degenerate_failure_probability(self):
        with pytest.raises(ValueError, match=r"^q must lie in \(0, 1\)$"):
            BaselineGame(n=2, q=Fraction(1), v=Fraction(100))

    @pytest.mark.parametrize("field", ["q", "v"])
    def test_rejects_a_bool(self, field):
        fields = {"n": 2, "q": Fraction(1, 2), "v": Fraction(100), field: True}
        with pytest.raises(ValueError, match=f"^{field} must be a real number, got bool$"):
            BaselineGame(**fields)

    def test_v_must_be_finite(self):
        for v in (math.inf, -math.inf):
            with pytest.raises(ValueError, match=r"^v must lie in \(0, inf\)$"):
                BaselineGame(n=2, q=Fraction(1, 2), v=v)
        # exact and beyond the float range: accepted, and the bid stays exact
        game = BaselineGame(n=2, q=Fraction(1, 2), v=10**400)
        assert closed_form_bid(game) == Fraction(2 * 10**400, 3)

    def test_closed_form_bid_reference_value(self):
        game = BaselineGame(n=2, q=Fraction(1, 2), v=Fraction(100))
        assert closed_form_bid(game) == Fraction(200, 3)

    def test_total_payoff_at_equilibrium_is_exact(self):
        game = BaselineGame(n=2, q=Fraction(1, 2), v=Fraction(100))
        assert baseline_utility(game, closed_form_bid(game)) == Fraction(25, 3)

    def test_deviation_equals_baseline_at_equilibrium_exactly(self):
        for n in range(2, 7):
            for q in (Fraction(1, 10), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(9, 10)):
                game = BaselineGame(n=n, q=q, v=Fraction(100))
                bid = closed_form_bid(game)
                assert deviation_utility(game, bid, Fraction(0)) == baseline_utility(
                    game, bid
                )

    def test_deviation_gain_is_exactly_linear_in_epsilon(self):
        game = BaselineGame(n=3, q=Fraction(2, 5), v=Fraction(100))
        bid = closed_form_bid(game)
        base = baseline_utility(game, bid)
        eps1, eps2 = Fraction(1, 1_000), Fraction(1, 1_000_000)
        delta1 = deviation_utility(game, bid, eps1) - base
        delta2 = deviation_utility(game, bid, eps2) - base
        slope = (delta1 - delta2) / (eps1 - eps2)
        assert slope == -((1 - game.q) + game.q / game.n)
        # linear through the origin: the extrapolated intercept vanishes
        assert delta1 - eps1 * slope == 0

    def test_overbidding_at_equilibrium_strictly_loses(self):
        game = BaselineGame(n=4, q=Fraction(1, 3), v=Fraction(50))
        bid = closed_form_bid(game)
        base = baseline_utility(game, bid)
        assert deviation_utility(game, bid, Fraction(1, 100)) < base

    def test_bid_never_exceeds_value_and_decreases_with_q(self):
        v = Fraction(100)
        bids = [
            closed_form_bid(BaselineGame(n=5, q=Fraction(k, 10), v=v))
            for k in range(1, 10)
        ]
        assert all(bid < v for bid in bids)
        assert all(a > b for a, b in zip(bids, bids[1:]))

    def test_reliable_execution_bids_close_to_value(self):
        game = BaselineGame(n=5, q=Fraction(1, 10**6), v=Fraction(100))
        assert 0 < game.v - closed_form_bid(game) < Fraction(1, 1_000)


class TestConditionalSuccessValue:
    def test_at_the_mean_adds_sigma_root_two_over_pi(self):
        value = conditional_success_value(100.0, 5.0, 100.0)
        assert value == pytest.approx(100.0 + 5.0 * math.sqrt(2 / math.pi), rel=1e-15)
        assert value == pytest.approx(103.98942280401432, rel=1e-15)

    @pytest.mark.parametrize(
        "v,sigma,b",
        [(100.0, 5.0, 100.0), (100.0, 5.0, 110.0), (100.0, 5.0, 92.0), (0.5, 0.01, 0.499)],
    )
    def test_matches_quadrature_oracle(self, v, sigma, b):
        z = (b - v) / sigma
        numerator = integrate.quad(
            lambda x: x * stats.norm.pdf(x, v, sigma), b, v + 12 * sigma, limit=200
        )[0]
        oracle = numerator / stats.norm.sf(z)
        assert conditional_success_value(v, sigma, b) == pytest.approx(oracle, rel=1e-12)

    def test_exceeds_both_mean_and_bid(self):
        for b in (80.0, 100.0, 115.0):
            value = conditional_success_value(100.0, 5.0, b)
            assert value > 100.0
            assert value > b

    def test_increasing_in_the_bid(self):
        values = [conditional_success_value(100.0, 5.0, b) for b in (90, 100, 110)]
        assert values[0] < values[1] < values[2]

    def test_rejects_non_positive_sigma(self):
        with pytest.raises(ValueError, match="sigma"):
            conditional_success_value(100.0, 0.0, 100.0)

    def test_far_out_of_support_raises(self):
        with pytest.raises(ValueError, match="out of support"):
            conditional_success_value(100.0, 5.0, 100.0 + 60 * 5.0)


class TestUtilityForms:
    def test_hand_value_at_the_mean(self):
        # at b = v: F = S = 1/2, so the reduced form is
        # n·(1/2)·(v − v/(1−2⁻ⁿ)) = −150/7 for n=3, v=100
        game = DiscreteTimeGame(n=3, v=100.0, sigma=2.0)
        expected = float(Fraction(-150, 7))
        assert simplified_utility(game, 100.0) == pytest.approx(expected, rel=1e-12)
        assert rank_sum_utility(game, 100.0) == pytest.approx(expected, rel=1e-12)
        # the displayed utility adds the slippage term n·φ(0)
        assert discrete_time_utility(game, 100.0) == pytest.approx(
            expected + 3 * normal_pdf(0.0), rel=1e-12
        )

    def test_two_bidder_frozen_value(self):
        game = DiscreteTimeGame(n=2, v=100.0, sigma=5.0)
        assert discrete_time_utility(game, 100.0) == pytest.approx(
            -32.53544877253047, rel=1e-13
        )

    def test_out_of_support_bid_rejected(self):
        game = DiscreteTimeGame(n=3, v=100.0, sigma=2.0)
        with pytest.raises(ValueError, match="outside the valuation support"):
            discrete_time_utility(game, 100.0 - 80.0)
        # far above v, 1 - F rounds to 0: refused, not divided by
        with pytest.raises(ValueError) as excinfo:
            discrete_time_utility(game, 180.0)
        assert str(excinfo.value) == "bid 180.0 is outside the valuation support (F in {0, 1})"

    @pytest.mark.parametrize(
        "utility",
        [discrete_time_utility, simplified_utility, rank_sum_utility, utility_gradient],
        ids=lambda utility: utility.__name__,
    )
    def test_nan_bid_rejected(self, utility):
        # a NaN bid used to pass the support guard and return NaN
        game = DiscreteTimeGame(n=3, v=10.0, sigma=1.0)
        with pytest.raises(ValueError, match=r"^bid nan is outside the valuation support"):
            utility(game, math.nan)

    @pytest.mark.parametrize(
        "v, sigma, message",
        [
            pytest.param(float("nan"), 5.0, "v must lie in (-inf, inf)", id="nan-5.0"),
            pytest.param(float("inf"), 5.0, "v must lie in (-inf, inf)", id="inf-5.0"),
            pytest.param(100.0, float("nan"), "sigma must lie in (0, inf)", id="100.0-nan"),
            pytest.param(100.0, float("inf"), "sigma must lie in (0, inf)", id="100.0-inf"),
            # beyond the float range: math.isfinite used to raise OverflowError
            pytest.param(10**400, 1.0, "v is too large for a float", id="int-v-beyond-float"),
            pytest.param(
                1.0, Fraction(10**400), "sigma is too large for a float",
                id="fraction-sigma-beyond-float",
            ),
        ],
    )
    def test_non_finite_game_rejected(self, v, sigma, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            DiscreteTimeGame(n=3, v=v, sigma=sigma)

    @pytest.mark.parametrize("field", ["v", "sigma"])
    @pytest.mark.parametrize("bad", [True, False, "1", None], ids=repr)
    def test_bool_or_non_number_rejected(self, field, bad):
        # a bool used to be accepted and run as 1.0 or 0.0
        with pytest.raises(ValueError, match=f"^{field} must be a real number, got "):
            DiscreteTimeGame(**{"n": 3, "v": 100.0, "sigma": 5.0, field: bad})

    def test_zero_sigma_rejected(self):
        with pytest.raises(ValueError, match=r"^sigma must lie in \(0, inf\)$"):
            discrete_time_utility(DiscreteTimeGame(n=3, v=100.0, sigma=0.0), 100.0)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError, match=r"^sigma must lie in \(0, inf\)$"):
            DiscreteTimeGame(n=3, v=100.0, sigma=-1.0)

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(2, 20),
        v=st.floats(1.0, 5000.0),
        sigma=st.floats(0.1, 20.0),
        z=st.floats(-5.5, 5.5),
    )
    def test_rank_sum_equals_reduced_form(self, n, v, sigma, z):
        game = DiscreteTimeGame(n=n, v=v, sigma=sigma)
        b = v + z * sigma
        left = rank_sum_utility(game, b)
        right = simplified_utility(game, b)
        assert abs(left - right) <= 1e-9 * (1 + abs(right))

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(2, 20),
        v=st.floats(1.0, 5000.0),
        sigma=st.floats(0.1, 20.0),
        z=st.floats(-5.5, 5.5),
    )
    def test_displayed_utility_is_reduced_form_plus_slippage(self, n, v, sigma, z):
        game = DiscreteTimeGame(n=n, v=v, sigma=sigma)
        b = v + z * sigma
        left = discrete_time_utility(game, b)
        right = simplified_utility(game, b) + n * normal_pdf(z)
        assert abs(left - right) <= 1e-9 * (1 + abs(left))


class TestUtilityGradient:
    def test_matches_central_differences_on_fixed_sample(self):
        rng = np.random.default_rng(90_210)
        worst = 0.0
        for _ in range(500):
            n = int(rng.integers(2, 21))
            v = float(rng.uniform(1.0, 1000.0))
            sigma = float(rng.uniform(0.1, 10.0))
            b = v + float(rng.uniform(-4.0, 4.0)) * sigma
            game = DiscreteTimeGame(n=n, v=v, sigma=sigma)
            h = 1e-5 * sigma
            numeric = (
                discrete_time_utility(game, b + h) - discrete_time_utility(game, b - h)
            ) / (2 * h)
            analytic = utility_gradient(game, b)
            worst = max(worst, abs(analytic - numeric) / (1 + abs(analytic)))
        assert worst < 1e-6

    def test_gradient_zero_at_interior_optimum(self):
        game = DiscreteTimeGame(n=5, v=0.5, sigma=0.01)
        details = optimal_bid_details(game)
        assert details.interior
        assert abs(utility_gradient(game, details.bid)) < 1e-4


class TestOptimalBid:
    def test_large_prize_has_no_interior_optimum(self):
        # monotone over the whole bracket: the argmax is its lower edge. The last
        # two rows are one game, sigma/v = 0.05 and n = 2, in two units: b*/v = 0.7
        for n, v, sigma in [(2, 3500.0, 0.5), (5, 3500.0, 5.0), (25, 3500.0, 12.0),
                            (2, 10.0, 0.5), (2, 1000.0, 50.0)]:
            details = optimal_bid_details(DiscreteTimeGame(n=n, v=v, sigma=sigma))
            assert not details.interior
            assert details.bid == pytest.approx(details.lower, abs=1e-4)
            assert details.lower == v - BRACKET_SIGMAS * sigma

    def test_no_interior_diagnostics_point_at_the_lower_edge(self):
        game = DiscreteTimeGame(n=5, v=3500.0, sigma=5.0)
        details = optimal_bid_details(game)
        assert not details.interior
        assert details.lower == 3470.0
        assert details.upper == 3530.0
        assert details.gradient_lower < 0
        assert details.gradient_upper < 0
        assert details.utility_lower > details.utility_upper
        assert details.bid == pytest.approx(details.lower, abs=1e-4)

    def test_b_star_over_v_depends_on_the_unit_of_v(self):
        # the game of the last two rows above at v = 1: the utility adds a pure
        # number to currency terms, so the search reports an interior point,
        # b*/v = 0.97336, not 0.7. It is a local maximum only: the lower edge's
        # utility is higher, a fault of the search this test does not pin
        details = optimal_bid_details(DiscreteTimeGame(n=2, v=1.0, sigma=0.05))
        assert details.interior
        assert details.bid == pytest.approx(0.9733592517555292, abs=1e-8)

    @pytest.mark.parametrize(
        "n,v,sigma,frozen",
        [
            (5, 0.5, 0.01, 0.49929162575137487),
            (3, 0.3, 0.02, 0.2975254119613017),
            (10, 0.5, 0.01, 0.49983156945575224),
        ],
    )
    def test_small_prize_interior_optimum(self, n, v, sigma, frozen):
        game = DiscreteTimeGame(n=n, v=v, sigma=sigma)
        details = optimal_bid_details(game)
        assert details.interior
        assert details.bid == pytest.approx(frozen, abs=1e-8)
        # genuinely a maximum: beats both bracket edges
        assert details.utility_at_bid >= details.utility_lower
        assert details.utility_at_bid >= details.utility_upper

    def test_tiny_sigma_bid_reaches_the_grid_maximum(self):
        # the tolerance shrinks with the bracket, and where σ is a few ulps of v
        # the bracket holds few floats: the bid must still be the best of them
        rng = np.random.default_rng(17)
        for _ in range(60):
            n = int(rng.choice([2, 3, 5, 10, 25]))
            v = float(10 ** rng.uniform(-6, 12))
            sigma = float(10 ** rng.uniform(-16, math.log10(3.6e-8)))
            game = DiscreteTimeGame(n=n, v=v, sigma=sigma)
            details = optimal_bid_details(game)
            grid = np.linspace(details.lower, details.upper, 2001)
            utilities = [discrete_time_utility(game, float(b)) for b in grid]
            shortfall = max(utilities) - details.utility_at_bid
            assert shortfall <= 1e-8 * (max(utilities) - min(utilities)), (n, v, sigma)

    def test_golden_section_tolerance_unchanged_at_larger_sigma(self):
        # where 1e-10·max(1, |v|) is the finer tolerance the bid is bit for bit
        # the one that tolerance alone gives
        rng = np.random.default_rng(18)
        for _ in range(60):
            n = int(rng.choice([2, 3, 5, 10, 25]))
            v = float(10 ** rng.uniform(-6, 12))
            sigma = max(1.0, v) * float(10 ** rng.uniform(-5, math.log10(2.0)))
            game = DiscreteTimeGame(n=n, v=v, sigma=sigma)
            details = optimal_bid_details(game)
            expected = _golden_section_argmax(
                lambda b: discrete_time_utility(game, b),
                details.lower,
                details.upper,
                1e-10 * max(1.0, abs(v)),
            )
            assert details.bid == expected, (n, v, sigma)

    def test_larger_sigma_takes_the_golden_section(self):
        details = optimal_bid_details(DiscreteTimeGame(n=3, v=1.0, sigma=1e-7))
        assert details.gradient_lower < 0
        assert details.method == "golden-section"

    def test_bracket_spans_six_sigmas(self):
        game = DiscreteTimeGame(n=3, v=0.3, sigma=0.02)
        details = optimal_bid_details(game)
        assert details.lower == 0.3 - BRACKET_SIGMAS * 0.02
        assert details.upper == 0.3 + BRACKET_SIGMAS * 0.02

    def test_bracket_near_the_largest_float(self):
        # the midpoint of two ends past about 8.99e307 overflows to inf
        assert optimal_bid_details(DiscreteTimeGame(n=3, v=1e308, sigma=1e-300)).bid == 1e308
        best = _golden_section_argmax(lambda b: -abs(b - 1.7e308), 1.6e308, 1.79e308, 1e296)
        assert best == pytest.approx(1.7e308, rel=1e-10)

    def test_zero_sigma_rejected(self):
        with pytest.raises(ValueError, match=r"^sigma must lie in \(0, inf\)$"):
            optimal_bid_details(DiscreteTimeGame(n=3, v=100.0, sigma=0.0))


class TestRefusals:
    @pytest.mark.parametrize("v", [0, Fraction(-1, 2), -3.5])
    def test_baseline_game_needs_a_positive_prize(self, v):
        with pytest.raises(ValueError, match=r"^v must lie in \(0, inf\)$"):
            BaselineGame(n=2, q=Fraction(1, 2), v=v)

    def test_baseline_utility_refuses_a_negative_bid(self):
        game = BaselineGame(n=2, q=Fraction(1, 2), v=Fraction(100))
        with pytest.raises(ValueError, match=r"^b must lie in \[0, inf\)$"):
            baseline_utility(game, Fraction(-1))

    def test_deviation_utility_refuses_a_negative_epsilon(self):
        game = BaselineGame(n=2, q=Fraction(1, 2), v=Fraction(100))
        with pytest.raises(ValueError, match=r"^epsilon must lie in \[0, inf\)$"):
            deviation_utility(game, Fraction(50), Fraction(-1, 10))
