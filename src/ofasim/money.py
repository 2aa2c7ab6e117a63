"""Exact currency arithmetic with fixed-point serialization.

All currency amounts in this package are `fractions.Fraction` values, so
settlement identities (conservation, worst-case floors) hold exactly with no
rounding anywhere in the accounting path. Amounts cross process boundaries
(JSON scenarios, CSV sweeps, reports) as decimal strings with at most
``FRACTIONAL_DIGITS`` fractional digits; quantization happens only at that
serialization boundary, never inside a computation.
"""

from __future__ import annotations

import math
import re
from contextlib import contextmanager
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from numbers import Real
from typing import Iterator

#: Number of fractional decimal digits accepted on input and emitted on output.
FRACTIONAL_DIGITS = 18

_SCALE = 10**FRACTIONAL_DIGITS

#: 10**k for every fractional digit count k the plain route accepts.
_POWERS = tuple(10**k for k in range(FRACTIONAL_DIGITS + 1))

#: Amounts must lie below 10**_MAX_DIGITS in magnitude (Python's default
#: int-string digit limit), so no literal can ask for a huge power of ten.
_MAX_DIGITS = 4300
_LIMIT = 10**_MAX_DIGITS
_TOO_LARGE = f"currency amount must lie below 1e{_MAX_DIGITS} in magnitude"

ZERO = Fraction(0)

_INFINITIES = (math.inf, -math.inf)

#: The plain form ``format_amount`` emits: ASCII digits, an optional minus
#: sign and fraction. Other forms (exponents, "+1", ".5") go through Decimal.
_PLAIN = re.compile(r"(-?[0-9]+)(?:\.([0-9]+))?")


def require_exact(value: object, name: str) -> None:
    """Refuse a currency value whose type is not exactly ``int`` or ``Fraction``.

    Floats (and Decimals, strings, bools) would silently break exactness, and
    the integer kernel reads ``numerator``/``denominator`` directly. Every
    library boundary that takes currency checks it here and keeps it as given.

    Raises:
        ValueError: Naming ``name`` and the offending type.
    """
    if type(value) not in (int, Fraction):
        raise ValueError(f"{name} must be an int or a Fraction, got {type(value).__name__}")


def require_amount(value: object, name: str) -> None:
    """Refuse a currency amount that :func:`require_exact` refuses or that is
    negative: ``<name> must be non-negative``. Every amount is non-negative but
    the signed ``SpoofAttack.bid_margin``, ``CensorshipScenario.attacker_value``
    and ``format_amount``'s, which call ``require_exact`` alone."""
    # an int compare; ``Fraction < 0`` is ~10x slower
    if type(value) not in (int, Fraction) or value.numerator < 0:
        require_exact(value, name)
        raise ValueError(f"{name} must be non-negative")


def require_id(value: object, name: str) -> None:
    """Refuse a solver or ledger id that is not a non-empty ``str``: ids are
    sorted and exported as JSON object keys."""
    if not (isinstance(value, str) and value):
        raise ValueError(f"{name} must be a non-empty str, got {value!r}")


def require_real(
    value: object, name: str, low: Real = -math.inf, high: Real = math.inf, strict: bool = False
) -> None:
    """Refuse a real-valued parameter that is a bool or not a ``numbers.Real``
    (``<name> must be a real number, got <type>``), or that is NaN, infinite or
    outside [low, high], or (low, high) when ``strict``: ``<name> must lie in
    <interval>``, open at an infinite end. The comparison is exact, so an exact
    ``10**400`` lies in (0, inf)."""
    # a float first: the ABC check ``isinstance(value, Real)`` is ~10x slower
    if type(value) is not float and (type(value) is bool or not isinstance(value, Real)):
        raise ValueError(f"{name} must be a real number, got {type(value).__name__}")
    if not (low < value < high if strict else low <= value <= high) or value in _INFINITIES:
        opening = "(" if strict or low == -math.inf else "["
        closing = ")" if strict or high == math.inf else "]"
        raise ValueError(f"{name} must lie in {opening}{low}, {high}{closing}")


@contextmanager
def float_range(name: str) -> Iterator[None]:
    """Turn an ``OverflowError`` of a float conversion into a ``ValueError``
    that names ``name``."""
    try:
        yield
    except OverflowError as exc:
        raise ValueError(f"{name} is too large for a float") from exc


def require_float(
    value: object, name: str, low: Real = -math.inf, high: Real = math.inf, strict: bool = False
) -> float:
    """``float(value)`` once :func:`require_real` accepts the float: the range
    is checked after rounding, so a tiny exact sigma that rounds to 0.0 is
    refused. A value past the float range is refused by :func:`float_range`."""
    if type(value) is not float and type(value) is not bool and isinstance(value, Real):
        with float_range(name):
            value = float(value)
    require_real(value, name, low, high, strict)
    return value


def require_int(value: object, name: str, low: int, high: int | None = None) -> None:
    """Refuse gas, a count, a latency or a seed that is not exactly an ``int``
    (a bool, float, numpy integer or string) or lies outside [low, high]:
    ``<name> must be an int, got <type>`` or ``<name> must lie in [low, high]``,
    with ``inf`` for a ``high`` of None."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {type(value).__name__}")
    if value < low or high is not None and value > high:
        raise ValueError(f"{name} must lie in [{low}, {'inf' if high is None else high}]")


def parse_amount(text: str | int) -> Fraction:
    """Parse a decimal-string (or integer) currency amount exactly.

    A plain literal (``-?digits[.digits]``) becomes ``Fraction(int, 10**k)``
    directly; any other form goes through ``Decimal``, which alone accepts
    it. Both routes give the same value and the same diagnostics.

    Args:
        text: Decimal literal such as ``"10.075"`` or ``"7.5e-7"``, or an int.

    Returns:
        The exact rational value of the literal.

    Raises:
        ValueError: If ``text`` is neither a ``str`` nor an ``int`` (a bool
            included): ``currency must be a decimal string``, and for a float
            ``, not a float (binary floats would break exact accounting)``.
            Also if the literal is not a finite decimal number, carries more
            than ``FRACTIONAL_DIGITS`` fractional digits, or is at least
            10**4300 in magnitude.
    """
    if type(text) is not str:
        if type(text) is not int:
            if isinstance(text, float):
                raise ValueError(
                    "currency must be a decimal string, not a float "
                    "(binary floats would break exact accounting)"
                )
            raise ValueError("currency must be a decimal string")
        if abs(text) >= _LIMIT:
            raise ValueError(_TOO_LARGE)
        return Fraction(text)
    plain = _PLAIN.fullmatch(text)
    if plain is None:
        try:
            value = Decimal(text)
        except InvalidOperation as exc:
            raise ValueError(f"not a decimal number: {text!r}") from exc
        if not value.is_finite():
            raise ValueError(f"currency amount must be finite: {text!r}")
        if value and value.adjusted() >= _MAX_DIGITS:
            raise ValueError(_TOO_LARGE)
        places = -value.as_tuple().exponent
    else:
        whole, fraction = plain.groups(default="")
        if len(whole) > _MAX_DIGITS and len(whole.lstrip("-0")) > _MAX_DIGITS:
            raise ValueError(_TOO_LARGE)
        places = len(fraction)
    if places > FRACTIONAL_DIGITS:
        raise ValueError(f"more than {FRACTIONAL_DIGITS} fractional digits: {text!r}")
    if plain is None:
        return Fraction(value)
    try:
        return Fraction(int(whole + fraction), _POWERS[places])
    except ValueError:  # past int()'s digit limit; Decimal has none
        return Fraction(Decimal(text))


def format_amount(amount: Fraction) -> str:
    """Render an amount as a decimal string with ≤ 18 fractional digits.

    Exact multiples of 10^-18 round-trip exactly; other rationals are rounded
    half-even at the 18th fractional digit. Trailing zeros are trimmed.

    Raises:
        ValueError: If ``amount`` is not an ``int`` or a ``Fraction``.
    """
    require_exact(amount, "amount")
    denominator = amount.denominator
    units, rest = divmod(amount.numerator * _SCALE, denominator)
    if 2 * rest > denominator or (2 * rest == denominator and units % 2):
        units += 1  # round half to even
    sign = "-" if units < 0 else ""
    whole, frac = divmod(abs(units), _SCALE)
    if frac == 0:
        return f"{sign}{whole}"
    digits = str(frac).zfill(FRACTIONAL_DIGITS).rstrip("0")
    return f"{sign}{whole}.{digits}"
