"""Censorship-cost analysis for gas-exhaustion (spoof-bid) attacks.

An attacker can try to block rival solvers by outbidding them and reserving
enough gas that no rival operation fits the budget, then letting its own
operation revert. Two cost models:

  - Naive: blocking costs the gas burned, ``gas_price · gamma``. Censorship
    is rational whenever the attacker's private value exceeds that.
  - Refined: with failure costs, blocking all rivals requires outbidding the
    best rival bid B and reserving at least ``gamma' = gamma − min rival
    gas``, so the attack costs at least ``gamma' · (gas_price + B/gamma)``.
    The signed surplus

        resistance = gamma' · (gas_price + B / gamma) − attacker_value

    is positive exactly when censorship is unprofitable. The attacker's own
    operation is excluded from the rival min/max.

Resistance is strictly increasing in gamma (d/dgamma = gas_price +
B·min_gas/gamma² > 0 whenever gas is priced or rivals bid), which is the
qualitative story the sweep output shows.

All arithmetic is exact, and so must the inputs be (``int`` or ``Fraction``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .money import ZERO, require_amount, require_exact, require_int


@dataclass(frozen=True)
class CensorshipScenario:
    """One censorship configuration.

    Attributes:
        gamma: Solver gas budget of the targeted auction.
        gas_price: Currency per gas unit.
        rival_ops: (bid, gas_reserved) pairs of the rivals the attacker wants
            to block; at least one, refused when the scenario is built.
        attacker_value: The attacker's private value for a censored auction.
    """

    gamma: int
    gas_price: Fraction
    rival_ops: tuple[tuple[Fraction, int], ...]
    attacker_value: Fraction = ZERO

    def __post_init__(self) -> None:
        require_int(self.gamma, "gamma", 1)
        require_amount(self.gas_price, "gas_price")
        object.__setattr__(self, "rival_ops", tuple(tuple(r) for r in self.rival_ops))
        if not self.rival_ops:
            raise ValueError("censorship scenario needs at least one rival")
        for bid, gas in self.rival_ops:
            require_amount(bid, "rival bid")
            require_int(gas, "rival gas", 1, self.gamma)
        require_exact(self.attacker_value, "attacker_value")


def naive_censorship_cost(gamma: int, gas_price: Fraction) -> Fraction:
    """Cost of blocking the auction when only gas is at stake.

    Args:
        gamma: Solver gas budget.
        gas_price: Currency per gas unit.

    Returns:
        ``gas_price · gamma``; censorship is rational when the attacker's
        value exceeds this.
    """
    require_int(gamma, "gamma", 1)
    require_amount(gas_price, "gas_price")
    return gas_price * gamma


def _resistance(
    gamma: int, gas_price: Fraction, best_bid: Fraction, min_gas: int, value: Fraction
) -> Fraction:
    """``(gamma − min_gas) · (gas_price + best_bid/gamma) − value``, built as
    one Fraction from integer numerators."""
    pn, pd = gas_price.numerator, gas_price.denominator
    bn, bd = best_bid.numerator, best_bid.denominator
    vn, vd = value.numerator, value.denominator
    den = pd * bd * gamma  # the rate gas_price + best_bid/gamma is over den
    rate = pn * bd * gamma + bn * pd
    return Fraction((gamma - min_gas) * rate * vd - vn * den, den * vd)


def censorship_resistance(scenario: CensorshipScenario) -> Fraction:
    """Signed surplus that makes censorship unprofitable under failure costs.

    Args:
        scenario: The configuration to evaluate.

    Returns:
        ``gamma' · (gas_price + B/gamma) − attacker_value`` with
        ``gamma' = gamma − min rival gas`` and ``B = max rival bid``.
        Positive values mean censorship loses money.
    """
    rivals = scenario.rival_ops
    return _resistance(
        scenario.gamma,
        scenario.gas_price,
        max(bid for bid, _ in rivals),
        min(gas for _, gas in rivals),
        scenario.attacker_value,
    )


def resistance_sweep(
    gamma_range: Sequence[int] | Iterable[int],
    gas_price_range: Sequence[Fraction] | Iterable[Fraction],
    template: CensorshipScenario,
) -> list[tuple[int, Fraction, Fraction]]:
    """Evaluate resistance over a (gamma, gas_price) grid with fixed rivals.

    Each point is checked as ``CensorshipScenario`` would check it; an
    invalid grid raises the error of its first invalid point, gamma-major.

    Args:
        gamma_range: Gas budgets to sweep (each must cover the rivals' gas).
        gas_price_range: Gas prices to sweep.
        template: Scenario supplying rivals and attacker value.

    Returns:
        ``(gamma, gas_price, resistance)`` rows, gamma-major; along each
        gas-price row the resistance is non-decreasing in gamma.

    Raises:
        ValueError: If either range is empty, or a point is invalid.
    """
    gammas = list(gamma_range)
    prices = list(gas_price_range)
    if not gammas or not prices:
        raise ValueError("sweep ranges must be non-empty")
    rivals = template.rival_ops
    # The template's rivals are valid, so a point fails on its gamma, its price,
    # then the widest rival's gas (as any too-wide rival). Past the first point,
    # the rest of the first gamma's row meets each price, and each later gamma
    # is met with prices already checked.
    max_gas = max(gas for _, gas in rivals)
    require_int(gammas[0], "gamma", 1)
    require_amount(prices[0], "gas_price")
    require_int(max_gas, "rival gas", 1, gammas[0])
    for price in prices[1:]:
        require_amount(price, "gas_price")
    for gamma in gammas[1:]:
        require_int(gamma, "gamma", 1)
        require_int(max_gas, "rival gas", 1, gamma)
    best_bid = max(bid for bid, _ in rivals)
    min_gas = min(gas for _, gas in rivals)
    value = template.attacker_value
    return [
        (gamma, price, _resistance(gamma, price, best_bid, min_gas, value))
        for gamma in gammas
        for price in prices
    ]
