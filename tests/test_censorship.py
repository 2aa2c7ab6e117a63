"""Tests for censorship cost metrics and the resistance sweep."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ofasim.censorship import (
    CensorshipScenario,
    censorship_resistance,
    naive_censorship_cost,
    resistance_sweep,
)
from ofasim.money import format_amount, parse_amount

PHI = Fraction(3, 4_000_000)  # 7.5e-7


def scenario(gamma=1_000_000, gas_price=PHI, rivals=((Fraction(100), 100_000),), value=0):
    return CensorshipScenario(
        gamma=gamma,
        gas_price=gas_price,
        rival_ops=rivals,
        attacker_value=Fraction(value),
    )


class TestNaiveCost:
    def test_small_budget(self):
        assert naive_censorship_cost(1_000_000, PHI) == parse_amount("0.75")

    def test_free_gas_is_free_censorship(self):
        assert naive_censorship_cost(1_000_000, Fraction(0)) == 0

    def test_large_budget(self):
        assert naive_censorship_cost(10_000_000, PHI) == parse_amount("7.5")

    def test_rejects_non_positive_gamma(self):
        with pytest.raises(ValueError, match="gamma"):
            naive_censorship_cost(0, PHI)


@pytest.mark.parametrize(
    "call",
    [
        lambda: CensorshipScenario(gamma=True, gas_price=PHI, rival_ops=()),
        lambda: resistance_sweep([True], [PHI], scenario()),
        lambda: naive_censorship_cost(True, PHI),
    ],
    ids=["scenario", "sweep", "naive"],
)
def test_bool_gamma_is_refused(call):
    # a bool gamma used to run as gamma 1
    with pytest.raises(ValueError, match="^gamma must be an int, got bool$"):
        call()


def test_naive_cost_refuses_an_inexact_gas_price():
    # a float price used to give a float cost
    with pytest.raises(ValueError, match="^gas_price must be an int or a Fraction, got float$"):
        naive_censorship_cost(1_000_000, 0.5)


class TestResistance:
    def test_single_rival_reference_value(self):
        value = censorship_resistance(scenario())
        assert value == parse_amount("90.675")
        assert format_amount(value) == "90.675"

    def test_break_even_attacker_value(self):
        assert censorship_resistance(scenario(value=parse_amount("90.675"))) == 0

    def test_no_bids_free_gas_leaves_minus_value(self):
        result = censorship_resistance(
            scenario(
                gas_price=Fraction(0),
                rivals=((Fraction(0), 100_000),),
                value=Fraction(50),
            )
        )
        assert result == -50

    def test_rate_keeps_the_gas_price_over_the_bid_denominator(self):
        # (10 − 1) · (1 + (1/3)/10) = 93/10; flooring pn/bd in the rate gives 3/10
        rivals = ((Fraction(1, 3), 1),)
        value = censorship_resistance(CensorshipScenario(10, Fraction(1), rivals))
        assert value == Fraction(93, 10)

    def test_uses_cheapest_rival_gas_and_best_rival_bid(self):
        rivals = (
            (Fraction(100), 400_000),
            (Fraction(70), 100_000),  # cheapest gas
            (Fraction(130), 200_000),  # best bid
        )
        value = censorship_resistance(scenario(rivals=rivals))
        gamma_prime = 1_000_000 - 100_000
        assert value == gamma_prime * (PHI + Fraction(130, 1_000_000))

    def test_empty_rivals_rejected(self):
        # refused when the scenario is built, so no resistance or sweep meets it
        with pytest.raises(ValueError, match="^censorship scenario needs at least one rival$"):
            scenario(rivals=())

    def test_rival_gas_must_fit_gamma(self):
        with pytest.raises(ValueError, match="rival gas"):
            scenario(rivals=((Fraction(1), 2_000_000),))

    @pytest.mark.parametrize("inexact", [0.1, "0.1", True], ids=["float", "str", "bool"])
    @pytest.mark.parametrize("field", ["gas_price", "rival bid", "attacker_value"])
    def test_inexact_amounts_are_refused(self, field, inexact):
        # 0.1 used to give the float 9.9 as the resistance
        fields = {"gas_price": PHI, "rival_ops": ((Fraction(1), 10),)}
        if field == "rival bid":
            fields["rival_ops"] = ((inexact, 10),)
        else:
            fields[field] = inexact
        with pytest.raises(ValueError) as excinfo:
            CensorshipScenario(gamma=100, **fields)
        kind = type(inexact).__name__
        assert str(excinfo.value) == f"{field} must be an int or a Fraction, got {kind}"

    @pytest.mark.parametrize("gas", [10.0, True], ids=["float", "bool"])
    def test_rival_gas_must_be_an_integer(self, gas):
        with pytest.raises(ValueError) as excinfo:
            scenario(gamma=100, rivals=((Fraction(1), gas),))
        assert str(excinfo.value) == f"rival gas must be an int, got {type(gas).__name__}"

    def test_naive_limit_as_rival_footprint_vanishes(self):
        # shrinking the cheapest rival's gas and bid toward zero recovers the
        # burn-the-budget cost
        value = censorship_resistance(
            scenario(rivals=((Fraction(0), 1),), value=Fraction(0))
        )
        naive = naive_censorship_cost(1_000_000, PHI)
        assert abs(value - naive) == PHI  # off by exactly one gas unit


class TestResistanceSweep:
    def test_single_point_grid_matches_direct_evaluation(self):
        template = scenario()
        rows = resistance_sweep([1_000_000], [PHI], template)
        assert rows == [(1_000_000, PHI, parse_amount("90.675"))]

    def test_doubling_gamma_strictly_increases_resistance(self):
        template = scenario()
        rows = resistance_sweep([1_000_000, 2_000_000], [PHI], template)
        assert rows[1][2] > rows[0][2]

    def test_zero_price_row_still_positive_with_bids(self):
        template = scenario()
        rows = resistance_sweep([1_000_000], [Fraction(0)], template)
        assert rows[0][2] == Fraction(900_000) * Fraction(100, 1_000_000)
        assert rows[0][2] > 0

    def test_rows_are_gamma_major_and_monotone(self):
        template = scenario()
        gammas = [1_000_000, 2_000_000, 5_000_000]
        prices = [Fraction(0), PHI]
        rows = resistance_sweep(gammas, prices, template)
        assert [(g, p) for g, p, _ in rows] == [
            (g, p) for g in gammas for p in prices
        ]
        for price in prices:
            column = [r for g, p, r in rows if p == price]
            assert all(a < b for a, b in zip(column, column[1:]))

    def test_empty_ranges_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            resistance_sweep([], [PHI], scenario())


def reference_sweep(gammas, prices, template):
    """One CensorshipScenario per grid point, gamma-major."""
    return [
        (
            gamma,
            price,
            censorship_resistance(
                CensorshipScenario(
                    gamma=gamma,
                    gas_price=price,
                    rival_ops=template.rival_ops,
                    attacker_value=template.attacker_value,
                )
            ),
        )
        for gamma in gammas
        for price in prices
    ]


def outcome(call):
    try:
        return call()
    except ValueError as exc:
        return f"ValueError: {exc}"


@pytest.mark.parametrize("seed", range(60))
def test_sweep_equals_per_point_reference(seed):
    """Equal rows on valid grids; on a grid where several checks fail, the
    error of the first failing point, with that point's first failing check."""
    rng = random.Random(seed)
    dens = (1, 3, 7, 10**6, 10**18)
    rivals = tuple(
        (Fraction(rng.randint(0, 10**5), rng.choice(dens)), rng.randint(1, 400_000))
        for _ in range(rng.choice((1, 1, 2, 4)))
    )
    template = CensorshipScenario(
        gamma=400_000,
        gas_price=PHI,
        rival_ops=rivals,
        attacker_value=Fraction(rng.randint(0, 10**4), rng.choice(dens)),
    )
    bad = rng.random() < 0.75  # most grids carry at least one failing point

    def gamma():
        if bad and rng.random() < 0.2:
            return rng.choice((0, -5, 10**6 + 0.5, "1000000", rng.randint(1, 300_000)))
        return rng.randint(400_000, 5_000_000)

    def price():
        if bad and rng.random() < 0.2:
            return -Fraction(rng.randint(1, 10**3), rng.choice(dens))
        return Fraction(rng.randint(0, 10**4), rng.choice(dens))

    gammas = [gamma() for _ in range(rng.randint(1, 12))]
    prices = [price() for _ in range(rng.randint(1, 4))]
    expected = outcome(lambda: reference_sweep(gammas, prices, template))
    assert outcome(lambda: resistance_sweep(gammas, prices, template)) == expected


def test_negative_rival_bid_is_refused():
    with pytest.raises(ValueError, match="^rival bid must be non-negative$"):
        scenario(rivals=((Fraction(-1, 2), 100_000),))
