"""Tests for exact currency parsing and fixed-point formatting."""

from __future__ import annotations

import random
from decimal import Decimal, InvalidOperation
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ofasim.money import FRACTIONAL_DIGITS, ZERO, format_amount, parse_amount, require_int


class TestParseAmount:
    def test_plain_decimal(self):
        assert parse_amount("10.075") == Fraction(403, 40)

    def test_integer_string(self):
        assert parse_amount("100") == Fraction(100)

    def test_int_passthrough(self):
        assert parse_amount(25) == Fraction(25)

    def test_negative(self):
        assert parse_amount("-0.25") == Fraction(-1, 4)

    def test_scientific_notation(self):
        assert parse_amount("7.5e-7") == Fraction(3, 4_000_000)

    def test_eighteen_fractional_digits_ok(self):
        text = "0." + "1" * FRACTIONAL_DIGITS
        assert parse_amount(text) == Fraction(int("1" * 18), 10**18)

    def test_nineteen_fractional_digits_rejected(self):
        with pytest.raises(ValueError, match="fractional digits"):
            parse_amount("0." + "1" * (FRACTIONAL_DIGITS + 1))

    def test_float_rejected(self):
        with pytest.raises(ValueError) as excinfo:
            parse_amount(1.5)  # type: ignore[arg-type]
        assert str(excinfo.value) == (
            "currency must be a decimal string, not a float "
            "(binary floats would break exact accounting)"
        )

    def test_bool_rejected(self):
        with pytest.raises(ValueError) as excinfo:
            parse_amount(True)  # type: ignore[arg-type]
        assert str(excinfo.value) == "currency must be a decimal string"

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            parse_amount("NaN")

    def test_infinity_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            parse_amount("Infinity")

    def test_garbage_rejected(self):
        with pytest.raises(ValueError, match="not a decimal number"):
            parse_amount("12,5")


    @pytest.mark.parametrize(
        "text",
        ["1e999999999", "-1E4300", "1" + "0" * 4300, "-1" + "0" * 4300 + ".5", 10**4300],
        ids=["exponent", "negative_exponent", "plain", "plain_fraction", "int"],
    )
    def test_magnitude_of_1e4300_or_more_is_refused(self, text):
        # refused before any Fraction or power of ten is built
        with pytest.raises(ValueError, match="must lie below 1e4300 in magnitude$"):
            parse_amount(text)

    @pytest.mark.parametrize(
        "text",
        ["1e4299", "-9.5e4299", "-" + "9" * 4300 + ".5", "0" * 5000 + "7", "0e999999999"],
        ids=["exponent", "negative_exponent", "plain_fraction", "leading_zeros", "zero"],
    )
    def test_magnitude_below_1e4300_is_accepted(self, text):
        assert parse_amount(text) == Fraction(Decimal(text))


class TestRequireInt:
    @pytest.mark.parametrize("value", [0, 5, 10**30])
    def test_accepts_an_int_within_the_bounds(self, value):
        require_int(value, "x", 0)
        require_int(min(value, 5), "x", 0, 5)

    @pytest.mark.parametrize("value", [True, 1.0, Fraction(1), Decimal(1), "1", None])
    def test_type_message(self, value):
        with pytest.raises(ValueError) as excinfo:
            require_int(value, "gas", 0)
        assert str(excinfo.value) == f"gas must be an int, got {type(value).__name__}"

    @pytest.mark.parametrize("value, high, bounds", [(-1, None, "[0, inf]"), (6, 5, "[0, 5]")])
    def test_range_message_names_the_bounds(self, value, high, bounds):
        with pytest.raises(ValueError) as excinfo:
            require_int(value, "gas", 0, high)
        assert str(excinfo.value) == f"gas must lie in {bounds}"


class TestFormatAmount:
    def test_trims_trailing_zeros(self):
        assert format_amount(Fraction(3, 2)) == "1.5"

    def test_whole_number_has_no_point(self):
        assert format_amount(Fraction(100)) == "100"

    def test_zero(self):
        assert format_amount(ZERO) == "0"

    def test_negative(self):
        assert format_amount(Fraction(-403, 40)) == "-10.075"

    def test_rounds_repeating_decimal(self):
        assert format_amount(Fraction(2, 3)) == "0." + "6" * 17 + "7"

    def test_half_even_rounds_down_to_even(self):
        # exactly 0.5 ulp above zero rounds to the even neighbour (zero)
        assert format_amount(Fraction(1, 2 * 10**18)) == "0"

    def test_half_even_rounds_up_to_even(self):
        assert (
            format_amount(Fraction(3, 2 * 10**18))
            == "0." + "0" * 17 + "2"
        )

    @pytest.mark.parametrize("value", [1.5, "1.5", True], ids=["float", "str", "bool"])
    def test_refuses_inexact_amounts(self, value):
        with pytest.raises(ValueError, match="amount must be an int or a Fraction"):
            format_amount(value)

    def test_int_formats_as_whole_number(self):
        assert format_amount(-7) == "-7"

    @given(
        st.fractions(
            min_value=Fraction(-(10**6)),
            max_value=Fraction(10**6),
            max_denominator=10**9,
        )
    )
    def test_round_trip_is_quantization(self, amount):
        quantized = Fraction(round(amount * 10**18), 10**18)
        assert parse_amount(format_amount(amount)) == quantized

    @given(st.integers(-(10**24), 10**24))
    def test_fixed_point_units_round_trip_exactly(self, units):
        amount = Fraction(units, 10**18)
        assert parse_amount(format_amount(amount)) == amount


def decimal_route(text: str) -> Fraction:
    """Reference parser: every literal through ``Decimal``."""
    try:
        value = Decimal(text)
    except InvalidOperation as exc:
        raise ValueError(f"not a decimal number: {text!r}") from exc
    if not value.is_finite():
        raise ValueError(f"currency amount must be finite: {text!r}")
    exponent = value.as_tuple().exponent
    if isinstance(exponent, int) and -exponent > FRACTIONAL_DIGITS:
        raise ValueError(f"more than {FRACTIONAL_DIGITS} fractional digits: {text!r}")
    return Fraction(value)


def outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return f"ValueError: {exc}"


EDGE_LITERALS = [
    "0", "-0", "-0.0", "1.", ".5", "-.5", "+1", " 1", "1 ", "1\n", "1_000",
    "١", "1٢", "-", "", ".", "--1", "1.2.3", "0x10", "1e3", "1E+3",
    "7.5e-7", "-2.5e-17", "1e-19", "1.5e400", "NaN", "-Infinity", "inf",
    "0." + "1" * 18, "0." + "1" * 19, "0." + "0" * 19, "12." + "0" * 18,
    "-3." + "9" * 19, "9" * 60, "-" + "9" * 40 + "." + "9" * 18, "00012.500",
]


@pytest.mark.parametrize("text", EDGE_LITERALS)
def test_parse_amount_matches_decimal_route_on_edge_literals(text):
    assert outcome(parse_amount, text) == outcome(decimal_route, text)


def test_parse_amount_matches_decimal_route_on_seeded_literals():
    rng = random.Random(20_251_018)
    # no "e" among the insertions: one before a long digit run would ask
    # Decimal for 10**(10**20)
    pieces = ["", "-", "+", " ", ".", "_", "٣", "x"]
    for _ in range(3000):
        whole = "".join(rng.choice("0123456789") for _ in range(rng.randint(0, 22)))
        frac = "".join(rng.choice("0123456789") for _ in range(rng.randint(0, 21)))
        text = rng.choice(["", "", "-", "+"]) + whole
        if rng.random() < 0.7:
            text += "." + frac
        if rng.random() < 0.1:
            text += rng.choice(["e", "E-", "e+"]) + str(rng.randint(0, 30))
        if rng.random() < 0.1:
            at = rng.randint(0, len(text))
            text = text[:at] + rng.choice(pieces) + text[at:]
        result = outcome(parse_amount, text)
        assert result == outcome(decimal_route, text), text
        assert not isinstance(result, Fraction) or type(result.numerator) is int
