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
    exists there: ``optimal_bid_details`` then reports ``interior=False``
    with boundary diagnostics. Interior optima do exist when v is on the
    order of σ·|z|·φ(z) (small prizes), and the optimizer finds them by
    golden-section search on the bracket.

    A caution on units: σ·f(b) = φ((b − v)/σ) is a pure number, while the
    other terms are in the currency unit of v and b, so U is not homogeneous
    in (v, σ, b) and b*/v depends on the unit v is written in. The same game,
    σ/v = 0.05 and n = 2, reports b*/v = 0.97336 at v = 1, a local maximum
    below the edge's utility, and the bracket edge, 0.7, at v = 10 and 1000.

Normal CDF/PDF come from ``math.erfc`` (absolute error well below 1e-12);
identity tolerances elsewhere are kept an order of magnitude looser.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .money import require_float, require_int, require_real

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
        q: Per-execution failure probability, in (0, 1).
        v: Common value of winning, in (0, inf).

    Fields are checked by ``money.require_real`` and kept as given, so with
    exact rational values the closed forms below evaluate exactly.
    """

    n: int
    q: object
    v: object

    def __post_init__(self) -> None:
        require_int(self.n, "n", 2)
        require_real(self.q, "q", 0, 1, strict=True)
        require_real(self.v, "v", 0, strict=True)


@dataclass(frozen=True)
class DiscreteTimeGame:
    """Symmetric game with normally drifting private valuations.

    Attributes:
        n: Number of bidders (≥ 2).
        v: Mean of the valuation X at execution time, in (-inf, inf).
        sigma: Standard deviation of X, in (0, inf).

    Both are checked by ``money.require_float`` and stored as floats.
    """

    n: int
    v: float
    sigma: float

    def __post_init__(self) -> None:
        require_int(self.n, "n", 2)
        object.__setattr__(self, "v", require_float(self.v, "v"))
        object.__setattr__(self, "sigma", require_float(self.sigma, "sigma", 0, strict=True))


def baseline_utility(game: BaselineGame, b):
    """Expected total payoff across all n solvers at a common bid b.

    Returns ``v(1 − qⁿ) − b``; exact for rational inputs. b must lie in
    [0, inf).
    """
    require_real(b, "b", 0)
    return game.v * (1 - game.q**game.n) - b


def deviation_utility(game: BaselineGame, b, epsilon):
    """Expected payoff of a solver overbidding the field by epsilon.

    With the rest of the field at a common bid b and uniform gas shares, the
    deviator at b+ε succeeds with probability 1−q earning v−(b+ε), pays ε/n
    when it fails but a rival succeeds, and pays (b+ε)/n when nobody does:

        (1−q)[v−(b+ε)] + q(−ε/n) + qⁿ(−b/n).

    Exact for rational inputs. b and epsilon must lie in [0, inf).
    """
    require_real(b, "b", 0)
    require_real(epsilon, "epsilon", 0)
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
        v: Mean of X, in (-inf, inf).
        sigma: Standard deviation of X, in (0, inf).
        b: The bid (truncation point), in (-inf, inf).

    Returns:
        ``v + σ·φ(z)/(1 − Φ(z))`` with z = (b − v)/σ, the truncated-normal
        mean.

    Raises:
        ValueError: If v, sigma or b lies outside its interval, or the
            survival probability underflows to zero (bid far above the
            support).
    """
    require_real(v, "v")
    require_real(sigma, "sigma", 0, strict=True)
    require_real(b, "b")
    z = (b - v) / sigma
    survival = normal_sf(z)
    if survival <= 0.0:
        raise ValueError("success probability underflowed; bid is out of support")
    return v + sigma * normal_pdf(z) / survival


def _support_terms(game: DiscreteTimeGame, b: float) -> tuple[float, float, float, float]:
    """Common ingredients (z, F, 1−F, 1−Fⁿ) with out-of-support guards; a NaN
    bid fails them too."""
    z = (b - game.v) / game.sigma
    cdf = normal_cdf(z)
    survival = normal_sf(z)
    if not (cdf > 0.0 and survival > 0.0):
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
        ValueError: If b lies outside the support (F numerically 0 or 1).
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
    n, v = game.n, game.v
    weight = sum(cdf**k for k in range(n))
    total = 0.0
    for rank in range(1, n + 1):
        execute = cdf ** (n - rank)
        total += execute * (survival * (v - b) - (b / n) * cdf**rank)
    return n / weight * total


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
        method: Always "golden-section", the one search there is.
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


def _golden_section_argmax(f, lower: float, upper: float, tol: float) -> float:
    """Deterministic golden-section maximization on [lower, upper]: the midpoint
    of the final interval once it is no wider than tol, or, if rounding merges
    the probes first, the best of the few floats left in the interval."""
    a, b = lower, upper
    span = b - a
    c = b - _INV_GOLDEN * span
    d = a + _INV_GOLDEN * span
    fc, fd = f(c), f(d)
    for _ in range(200):
        if b - a <= tol:
            break
        if not a < c < d < b:
            floats = [a]
            while floats[-1] < b:
                floats.append(math.nextafter(floats[-1], b))
            return max(floats, key=f)
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = f(d)
    # the bits of 0.5 * (a + b) outside the subnormals, without its overflow past 8.99e307
    return 0.5 * a + 0.5 * b


def optimal_bid_details(game: DiscreteTimeGame) -> BidSearchResult:
    """Search [v−6σ, v+6σ] for the utility-maximizing bid.

    Golden-section maximization of the utility, to a final interval no wider
    than 1e-10·max(1, |v|) nor than 1e-6 of the bracket, so a bracket that
    tiny σ makes narrow is still resolved finely. The result records whether
    the located argmax is interior.
    """
    lower = game.v - BRACKET_SIGMAS * game.sigma
    upper = game.v + BRACKET_SIGMAS * game.sigma

    def util(b: float) -> float:
        return discrete_time_utility(game, b)

    # first, so a bracket past the support fails here, before the search
    edges = dict(
        lower=lower,
        upper=upper,
        gradient_lower=utility_gradient(game, lower),
        gradient_upper=utility_gradient(game, upper),
        utility_lower=util(lower),
        utility_upper=util(upper),
    )
    margin = 1e-6 * (upper - lower)
    best = _golden_section_argmax(util, lower, upper, min(1e-10 * max(1.0, abs(game.v)), margin))
    return BidSearchResult(
        bid=best,
        interior=lower + margin < best < upper - margin,
        method="golden-section",
        utility_at_bid=util(best),
        **edges,
    )
