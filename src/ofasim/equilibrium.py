"""Bidding theory for failure-cost auctions: closed forms and numeric solvers.

Two symmetric bidding games over a common prize:

  - Baseline game: n solvers bid for value v; each executed operation fails
    independently with probability q. The expected total payoff at a common
    bid b is ``v(1 − qⁿ) − b``; a marginal overbid b+ε earns the deviator
    ``(1−q)[v−(b+ε)] + q(−ε/n) + qⁿ(−b/n)``. Equating the two at ε → 0 gives
    the symmetric equilibrium bid

        b* = v · n(1 − q^(n−1)) / (n − q^(n−1)),

    which satisfies the indifference condition exactly (the functions here
    accept exact rational inputs, so the identity can be checked with no
    rounding at all).

  - Valuation-drift game: each of n solvers privately observes X ~ N(v, σ²)
    at execution time and cancels (forcing a revert) when X falls below its
    bid b. With F = F_X(b) and f = f_X(b), the expected utility used by the
    numeric optimizer is the closed form

        U(b) = n[ v(1 − F) + σ·f(b) − b(1 − F)/(1 − Fⁿ) ],

    implemented exactly as displayed. Its rank-weighted expansion
    (``rank_sum_utility``) and the reduced form ``n(1−F)[v − b/(1−Fⁿ)]``
    (``simplified_utility``) agree to rounding error; the closed form above
    equals the reduced form plus the slippage term n·σ·f(b).

    A caution that matters for optimization: U(b) as displayed is monotone
    decreasing in b across the whole bracket [v−6σ, v+6σ] whenever v is large
    relative to σ (e.g. prize ~3500 with σ ≤ 12), so no interior maximum
    exists there and ``optimal_bid_numeric`` raises ``NoInteriorOptimumError``
    with boundary diagnostics. Interior optima do exist when v is on the
    order of σ·|z|·φ(z) (small prizes), and the optimizer finds them by
    bracketed gradient root-finding with a golden-section fallback.

Normal CDF/PDF come from ``math.erfc`` (absolute error well below 1e-12);
identity tolerances elsewhere are kept an order of magnitude looser.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: Half-width of the bid search bracket, in standard deviations.
BRACKET_SIGMAS = 6.0


def normal_pdf(z: float) -> float:
    """Standard normal density at z."""
    return _INV_SQRT_2PI * math.exp(-0.5 * z * z)


def normal_cdf(z: float) -> float:
    """Standard normal distribution function at z, via erfc."""
    return 0.5 * math.erfc(-z / _SQRT2)


def normal_sf(z: float) -> float:
    """Standard normal survival function 1 − Φ(z), computed without
    cancellation."""
    return 0.5 * math.erfc(z / _SQRT2)


@dataclass(frozen=True)
class BaselineGame:
    """Symmetric game with an exogenous iid failure probability.

    Attributes:
        n: Number of bidders (≥ 2).
        q: Per-execution failure probability, strictly inside (0, 1).
        v: Common value of winning (> 0).

    Fields accept exact rational values; the closed forms below then evaluate
    exactly.
    """

    n: int
    q: object
    v: object

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 2:
            raise ValueError("n must be an integer >= 2")
        if not 0 < self.q < 1:
            raise ValueError("q must lie strictly in (0, 1)")
        if not self.v > 0:
            raise ValueError("v must be positive")


@dataclass(frozen=True)
class DiscreteTimeGame:
    """Symmetric game with normally drifting private valuations.

    Attributes:
        n: Number of bidders (≥ 2).
        v: Mean of the valuation X at execution time.
        sigma: Standard deviation of X (≥ 0; the utility functions require
            a strictly positive sigma).
    """

    n: int
    v: float
    sigma: float

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 2:
            raise ValueError("n must be an integer >= 2")
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")


def baseline_utility(game: BaselineGame, b):
    """Expected total payoff across all n solvers at a common bid b.

    Returns ``v(1 − qⁿ) − b``; exact for rational inputs.
    """
    if b < 0:
        raise ValueError("b must be non-negative")
    return game.v * (1 - game.q**game.n) - b


def deviation_utility(game: BaselineGame, b, epsilon):
    """Expected payoff of a solver overbidding the field by epsilon.

    With the rest of the field at a common bid b and uniform gas shares, the
    deviator at b+ε succeeds with probability 1−q earning v−(b+ε), pays ε/n
    when it fails but a rival succeeds, and pays (b+ε)/n when nobody does:

        (1−q)[v−(b+ε)] + q(−ε/n) + qⁿ(−b/n).

    Exact for rational inputs.
    """
    if b < 0 or epsilon < 0:
        raise ValueError("b and epsilon must be non-negative")
    n, q, v = game.n, game.q, game.v
    return (1 - q) * (v - (b + epsilon)) + q * (-epsilon / n) + q**n * (-b / n)


def closed_form_bid(game: BaselineGame):
    """Symmetric equilibrium bid of the baseline game.

    Returns ``v · n(1 − q^(n−1)) / (n − q^(n−1))``, the bid at which the
    marginal-overbid gain vanishes; exact for rational inputs.
    """
    n, q, v = game.n, game.q, game.v
    qn1 = q ** (n - 1)
    return v * n * (1 - qn1) / (n - qn1)


def conditional_success_value(v: float, sigma: float, b: float) -> float:
    """Mean valuation given that it clears the bid: E[X | X > b].

    Args:
        v: Mean of X.
        sigma: Standard deviation of X (> 0).
        b: The bid (truncation point).

    Returns:
        ``v + σ·φ(z)/(1 − Φ(z))`` with z = (b − v)/σ, the truncated-normal
        mean.

    Raises:
        ValueError: If sigma is not positive, or the survival probability
            underflows to zero (bid far above the support).
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    z = (b - v) / sigma
    survival = normal_sf(z)
    if survival <= 0.0:
        raise ValueError("success probability underflowed; bid is out of support")
    return v + sigma * normal_pdf(z) / survival


def _support_terms(game: DiscreteTimeGame, b: float) -> tuple[float, float, float, float]:
    """Common ingredients (z, F, 1−F, 1−Fⁿ) with out-of-support guards."""
    if game.sigma <= 0:
        raise ValueError("sigma must be positive")
    z = (b - game.v) / game.sigma
    cdf = normal_cdf(z)
    survival = normal_sf(z)
    if cdf <= 0.0 or survival <= 0.0:
        raise ValueError(
            f"bid {b} is outside the valuation support (F in {{0, 1}})"
        )
    one_minus_fn = _one_minus_nth_power(game.n, cdf, survival)
    return z, cdf, survival, one_minus_fn


def _one_minus_nth_power(n: int, cdf: float, survival: float) -> float:
    """1 − Fⁿ without cancellation, picking whichever tail is accurate."""
    log_f = math.log(cdf) if cdf <= 0.5 else math.log1p(-survival)
    return -math.expm1(n * log_f)


def discrete_time_utility(game: DiscreteTimeGame, b: float) -> float:
    """Closed-form expected utility of the valuation-drift game at bid b.

    Returns ``n[ v(1−F) + σ·f_X(b) − b(1−F)/(1−Fⁿ) ]`` where F, f are the
    CDF/PDF of X ~ N(v, σ²) at b. Note σ·f_X(b) = φ((b−v)/σ).

    Raises:
        ValueError: If sigma is not positive or b lies outside the support
            (F numerically 0 or 1).
    """
    z, _, survival, one_minus_fn = _support_terms(game, b)
    pdf = normal_pdf(z)
    return game.n * (game.v * survival + pdf - b * survival / one_minus_fn)


def simplified_utility(game: DiscreteTimeGame, b: float) -> float:
    """Reduced rank-sum utility ``n(1−F)[v − b/(1−Fⁿ)]``.

    Equals ``rank_sum_utility`` exactly (to rounding) and equals
    ``discrete_time_utility`` minus the slippage term n·σ·f_X(b).
    """
    _, _, survival, one_minus_fn = _support_terms(game, b)
    return game.n * survival * (game.v - b / one_minus_fn)


def rank_sum_utility(game: DiscreteTimeGame, b: float) -> float:
    """Rank-weighted expected utility, evaluated term by term.

    The bidder executes at rank r only if the r−1 better-ranked operations
    all canceled; summing over ranks with execution probabilities F^(n−r),
    success term (1−F)(v−b) and penalty term −(b/n)·F^r, normalized by the
    total execution weight:

        n / (Σ_j F^(n−j)) · Σ_r F^(n−r) [ (1−F)(v−b) − (b/n)·F^r ].
    """
    _, cdf, survival, _ = _support_terms(game, b)
    return _rank_weighted_total(game.n, cdf, survival, game.v, b)


def _rank_weighted_total(n: int, cdf: float, survival: float, v: float, b: float) -> float:
    """Rank-sum expression with the success/cancel probabilities supplied
    directly (exercised by algebra tests independent of the normal model)."""
    weight = sum(cdf**k for k in range(n))
    total = 0.0
    for rank in range(1, n + 1):
        execute = cdf ** (n - rank)
        total += execute * (survival * (v - b) - (b / n) * cdf**rank)
    return n / weight * total


def _simplified_total(n: int, cdf: float, survival: float, v: float, b: float) -> float:
    """Reduced form with probabilities supplied directly."""
    one_minus_fn = _one_minus_nth_power(n, cdf, survival)
    return n * survival * (v - b / one_minus_fn)


def utility_gradient(game: DiscreteTimeGame, b: float) -> float:
    """Derivative of ``discrete_time_utility`` with respect to the bid.

    Assembled from the term-wise derivatives
    d/db[v(1−Φ(z))] = −vφ(z)/σ, d/db[φ(z)] = −zφ(z)/σ, and the quotient rule
    for Q(b) = b(1−Φ)/(1−Φⁿ):

        dQ/db = [ (1−Φⁿ)((1−Φ) − bφ/σ) + b(1−Φ)·nΦ^(n−1)·φ/σ ] / (1−Φⁿ)²

    so the gradient is ``n[ −vφ/σ − zφ/σ − dQ/db ]``. Agrees with central
    finite differences to better than 1e-6 relative.
    """
    z, cdf, survival, one_minus_fn = _support_terms(game, b)
    n, v, sigma = game.n, game.v, game.sigma
    pdf = normal_pdf(z)
    dq_num = one_minus_fn * (survival - b * pdf / sigma)
    dq_num += b * survival * n * cdf ** (n - 1) * pdf / sigma
    dq = dq_num / (one_minus_fn * one_minus_fn)
    return n * (-v * pdf / sigma - z * pdf / sigma - dq)


@dataclass(frozen=True)
class BidSearchResult:
    """Outcome of the bracketed bid search.

    Attributes:
        bid: The located argmax candidate.
        interior: True when the candidate is a genuine interior maximum.
        method: "gradient-root" or "golden-section".
        lower / upper: Bracket endpoints.
        gradient_lower / gradient_upper: Utility gradient at the endpoints.
        utility_lower / utility_upper / utility_at_bid: Utility values for
            diagnostics.
    """

    bid: float
    interior: bool
    method: str
    lower: float
    upper: float
    gradient_lower: float
    gradient_upper: float
    utility_lower: float
    utility_upper: float
    utility_at_bid: float


class NoInteriorOptimumError(Exception):
    """The utility has no interior maximum on the search bracket.

    Raised when the utility is monotone over [v−6σ, v+6σ] so the argmax sits
    on a boundary; carries the search diagnostics as ``result``.
    """

    def __init__(self, result: BidSearchResult) -> None:
        self.result = result
        super().__init__(
            "no interior optimum in "
            f"[{result.lower:.6g}, {result.upper:.6g}]: "
            f"gradient {result.gradient_lower:.6g} at the lower edge, "
            f"{result.gradient_upper:.6g} at the upper edge; bracket argmax "
            f"at {result.bid:.6g} "
            f"(utility {result.utility_at_bid:.6g} vs "
            f"{result.utility_lower:.6g} / {result.utility_upper:.6g} at the edges)"
        )


def _golden_section_argmax(f, lower: float, upper: float, tol: float) -> float:
    """Deterministic golden-section maximization on [lower, upper]."""
    a, b = lower, upper
    span = b - a
    c = b - _INV_GOLDEN * span
    d = a + _INV_GOLDEN * span
    fc, fd = f(c), f(d)
    for _ in range(200):
        if b - a <= tol:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def optimal_bid_details(game: DiscreteTimeGame) -> BidSearchResult:
    """Search [v−6σ, v+6σ] for the utility-maximizing bid.

    Tries bracketed root-finding on the gradient first (Brent, 1e-10 relative
    tolerance, 200 iterations); falls back to golden-section maximization of
    the utility when the gradient does not change sign or the root is not a
    maximum. The result records whether the located argmax is interior.
    """
    if game.sigma <= 0:
        raise ValueError("sigma must be positive")
    lower = game.v - BRACKET_SIGMAS * game.sigma
    upper = game.v + BRACKET_SIGMAS * game.sigma

    def util(b: float) -> float:
        return discrete_time_utility(game, b)

    def grad(b: float) -> float:
        return utility_gradient(game, b)

    grad_lower, grad_upper = grad(lower), grad(upper)
    util_lower, util_upper = util(lower), util(upper)

    best = None
    method = "golden-section"
    if grad_lower > 0.0 > grad_upper:
        from scipy.optimize import brentq  # deferred: ~50 MiB and most of import time

        root = brentq(grad, lower, upper, xtol=1e-12, rtol=1e-10, maxiter=200)
        if util(root) >= max(util_lower, util_upper):
            best, method = float(root), "gradient-root"
    if best is None:
        tol = 1e-10 * max(1.0, abs(game.v))
        best = _golden_section_argmax(util, lower, upper, tol)

    margin = 1e-6 * (upper - lower)
    interior = lower + margin < best < upper - margin
    return BidSearchResult(
        bid=best,
        interior=interior,
        method=method,
        lower=lower,
        upper=upper,
        gradient_lower=grad_lower,
        gradient_upper=grad_upper,
        utility_lower=util_lower,
        utility_upper=util_upper,
        utility_at_bid=util(best),
    )


def optimal_bid_numeric(game: DiscreteTimeGame) -> float:
    """Utility-maximizing bid on [v−6σ, v+6σ].

    Returns:
        The interior argmax of ``discrete_time_utility``.

    Raises:
        NoInteriorOptimumError: When the utility is monotone on the bracket
            and the argmax sits on a boundary (the case for prizes large
            relative to sigma); the exception carries boundary diagnostics.
        ValueError: If sigma is not positive.
    """
    result = optimal_bid_details(game)
    if not result.interior:
        raise NoInteriorOptimumError(result)
    return result.bid
