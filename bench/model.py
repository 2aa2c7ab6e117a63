"""Independent reference computations used to check the program's outputs.

Nothing here imports ``ofasim``: every value is recomputed from the paper's
formulas, in ``Fraction`` where the program is exact and in floats (via
``math.erfc``) where it is statistical.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

HALF_UNIT = Fraction(1, 2 * 10**18)  # rounding allowance of an 18-digit amount
SE_BAND = 6.0  # standard errors allowed between a Monte-Carlo mean and its expectation
RARE_EVENTS = 5  # extra outcomes allowed on top of SE_BAND, for patterns too rare to be normal
ARGMAX_GRID = 41  # points of the fixed grid on which an equilibrium bid must beat U

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def random_amount(rng: random.Random, low: int, high: int) -> Fraction:
    """A seeded decimal amount in [low, high] with 4 fractional digits (an input,
    not a check: shared by the workloads that generate amounts)."""
    return Fraction(rng.randint(low * 10_000, high * 10_000), 10_000)


def amount_matches(text: str, exact: Fraction) -> bool:
    """True when a decimal string is ``exact`` rounded to 18 fractional digits."""
    return abs(Fraction(text) - exact) <= HALF_UNIT


def norm_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / _SQRT2)


def norm_sf(z: float) -> float:
    return 0.5 * math.erfc(z / _SQRT2)


def norm_pdf(z: float) -> float:
    return _INV_SQRT_2PI * math.exp(-0.5 * z * z)


# ---------------------------------------------------------------------------
# admission and settlement; an op is (solver_id, bid, gas_reserved, gas_used, succeeds)


def op_key(op: tuple) -> tuple:
    return (-op[1], op[2], op[0])


def admit(candidates, gamma: int) -> list[tuple]:
    """Best op per solver, canonical order, longest prefix that fits gamma."""
    best: dict[str, tuple] = {}
    for op in candidates:
        cur = best.get(op[0])
        if cur is None or op_key(op) < op_key(cur):
            best[op[0]] = op
    admitted, used = [], 0
    for op in sorted(best.values(), key=op_key):
        if used + op[2] > gamma:
            break
        admitted.append(op)
        used += op[2]
    return admitted


def guaranteed_minimum(admitted, gamma: int) -> Fraction:
    return sum((op[1] * Fraction(op[2], gamma) for op in admitted), Fraction(0))


def settle(admitted, gamma: int, price: Fraction, user_gas: int, values) -> dict:
    """Paper settlement: reverts before the first success pay (b - b_win)*g/gamma,
    or b*g/gamma when nothing succeeds; later ops are skipped."""
    winner = next((op for op in admitted if op[4]), None)
    reverted = []
    for op in admitted:
        if op is winner:
            break
        reverted.append(op)
    win_bid = winner[1] if winner else Fraction(0)
    costs = {op[0]: (op[1] - win_bid) * Fraction(op[2], gamma) for op in reverted}
    gas_charges = {op[0]: price * op[3] for op in reverted}
    if winner:
        gas_charges[winner[0]] = price * (user_gas + winner[3])
    payoffs = {}
    for op in admitted:
        sid = op[0]
        if op is winner:
            payoffs[sid] = values.get(sid, Fraction(0)) - op[1] - gas_charges[sid]
        elif sid in costs:
            payoffs[sid] = -costs[sid] - gas_charges[sid]
        else:
            payoffs[sid] = Fraction(0)
    executed, seen_winner = [], False
    for op in admitted:
        if seen_winner:
            executed.append((op[0], "skipped"))
        elif op is winner:
            executed.append((op[0], "succeeded"))
            seen_winner = True
        else:
            executed.append((op[0], "reverted"))
    return {
        "winner": winner[0] if winner else None,
        "winner_bid": winner[1] if winner else None,
        "executed": executed,
        "failure_costs": costs,
        "gas_charges": gas_charges,
        "solver_payoffs": payoffs,
        # conservation: the beneficiary receives the winning bid plus every cost
        "beneficiary_payout": win_bid + sum(costs.values(), Fraction(0)),
        "total_gas_used": user_gas
        + sum(op[3] for op in reverted)
        + (winner[3] if winner else 0),
        "reverted": [op[0] for op in reverted],
    }


def required_escrow(bid: Fraction, gas: int, gamma: int, price: Fraction) -> Fraction:
    return bid * Fraction(gas, gamma) + price * gas


# ---------------------------------------------------------------------------
# exact expectations of the Monte-Carlo studies


class Expectation:
    """Mean, variance and value span of one reported statistic."""

    def __init__(self, mean: float, second: float, span: float) -> None:
        self.mean = mean
        self.var = max(second - mean * mean, 0.0)
        self.span = span

    def accepts(self, stat: dict, trials: int) -> bool:
        """Mean within SE_BAND standard errors (the larger of the reported and
        the exact one) plus RARE_EVENTS outcomes' worth of the value span:
        a pattern seen a few times where it is expected 0.1 times is not
        normally distributed, and the SE band alone would reject it."""
        se = max(stat["std_error"], math.sqrt(self.var / trials))
        slack = SE_BAND * se + RARE_EVENTS * self.span / trials + 1e-9 * (1.0 + abs(self.mean))
        return stat["trials"] == trials and abs(stat["mean"] - self.mean) <= slack


def _execution_order(bids) -> list[Fraction]:
    # equal gas and index-ordered ids: descending bid, ties by index
    return [bid for _, bid in sorted(enumerate(bids), key=lambda ib: (-ib[1], ib[0]))]


def _first_success_law(fail_probs: list[float]) -> list[float]:
    """p_k = prod_{j<k} fail_j * (1 - fail_k); p_n = prod of all fails."""
    law, reach = [], 1.0
    for fail in fail_probs:
        law.append(reach * (1.0 - fail))
        reach *= fail
    law.append(reach)
    return law


def _pattern_tables(order, gas_per_op: int, price: Fraction):
    """Per-pattern constant parts of each solver's payoff and the payout.

    Pattern k < n: positions before k revert, k wins (its value is added by
    the caller). Pattern n: everything reverts.
    """
    n = len(order)
    gamma = n * gas_per_op
    share = Fraction(gas_per_op, gamma)
    fee = float(price * gas_per_op)
    rows, payouts = [], []
    for k in range(n + 1):
        win = order[k] if k < n else Fraction(0)
        row = [float(-(order[j] - win) * share) - fee for j in range(k)]
        if k < n:
            row.append(float(-win) - fee)
            row.extend([0.0] * (n - k - 1))
        rows.append(row)
        payouts.append(float(win + sum((order[j] - win) * share for j in range(k))))
    return rows, payouts


def _moments(law, values) -> Expectation:
    return Expectation(
        sum(p * x for p, x in zip(law, values)),
        sum(p * x * x for p, x in zip(law, values)),
        max(values) - min(values),
    )


def iid_expectations(bids, q: float, v: Fraction, gas_per_op: int, price: Fraction) -> dict:
    """Expectation of every statistic of an iid-failure report."""
    order = _execution_order(bids)
    n = len(order)
    law = _first_success_law([q] * n)
    rows, payouts = _pattern_tables(order, gas_per_op, price)
    value = float(v)
    for k in range(n):
        rows[k][k] += value
    return {
        "per_solver": [_moments(law, [row[j] for row in rows]) for j in range(n)],
        "total_payoff": _moments(law, [sum(row) for row in rows]),
        "beneficiary": _moments(law, payouts),
        "success_probability": _moments(law, [1.0] * n + [0.0]),
    }


def normal_expectations(
    bids, v: float, sigma: float, gas_per_op: int, price: Fraction
) -> dict:
    """Expectation of the statistics of a normal-valuation report.

    Position k wins when its X ~ N(v, sigma^2) exceeds its bid; the winner
    adds its realized X, whose conditional mean and variance are those of the
    normal truncated below at the bid.
    """
    order = _execution_order(bids)
    n = len(order)
    z = [(float(b) - v) / sigma for b in order]
    law = _first_success_law([norm_cdf(zk) for zk in z])
    rows, payouts = _pattern_tables(order, gas_per_op, price)
    # E[X | X > b] and Var[X | X > b] per position
    cond = []
    for zk in z:
        lam = norm_pdf(zk) / norm_sf(zk)
        cond.append((v + sigma * lam, sigma * sigma * (1.0 + zk * lam - lam * lam)))

    def with_winner(column) -> Expectation:
        # column(k) -> (constant part, whether the winner's X is added)
        mean = second = 0.0
        values = []
        for k, p in enumerate(law):
            const, adds_x = column(k)
            if adds_x:
                m, var = cond[k]
                mean += p * (const + m)
                second += p * (var + (const + m) ** 2)
                values += [const + m - 6.0 * sigma, const + m + 6.0 * sigma]
            else:
                mean += p * const
                second += p * const * const
                values.append(const)
        return Expectation(mean, second, max(values) - min(values))

    return {
        "per_solver": [with_winner(lambda k, j=j: (rows[k][j], k == j)) for j in range(n)],
        "total_payoff": with_winner(lambda k: (sum(rows[k]), k < n)),
        "beneficiary": _moments(law, payouts),
        "executed_ops": _moments(law, [float(min(k + 1, n)) for k in range(n + 1)]),
    }


def throughput_rows(gammas, gas_per_op: int, bid_high: Fraction, bid_low: Fraction, q: float):
    """Per budget: (ops, median bid, cost expectation, success expectation)."""
    rows = []
    for gamma in gammas:
        count = gamma // gas_per_op
        step = (bid_high - bid_low) / (count - 1) if count > 1 else Fraction(0)
        bids = [bid_high - step * i for i in range(count)]
        median = (count + 1) // 2 - 1  # rank ceil(count / 2)
        below = bids[median + 1 :]
        share = Fraction(gas_per_op, gamma)
        law = _first_success_law([q] * len(below))
        costs = [float((bids[median] - b) * share) for b in below]
        costs.append(float(bids[median] * share))
        success = [1.0] * len(below) + [0.0]
        rows.append((count, bids[median], _moments(law, costs), _moments(law, success)))
    return rows


# ---------------------------------------------------------------------------
# equilibrium utility


def utility(n: int, v: float, sigma: float, b: float) -> float:
    """U(b) = n[v(1-F) + phi(z) - b(1-F)/(1-F^n)], z = (b - v)/sigma."""
    z = (b - v) / sigma
    cdf, sf = norm_cdf(z), norm_sf(z)
    log_f = math.log(cdf) if cdf <= 0.5 else math.log1p(-sf)
    one_minus_fn = -math.expm1(n * log_f)
    return n * (v * sf + norm_pdf(z) - b * sf / one_minus_fn)


def bid_is_argmax(n: int, v: float, sigma: float, b_star: float) -> bool:
    """b_star lies in [v - 6 sigma, v + 6 sigma] and U(b_star) is no lower than
    U at the bracket edges and on a fixed grid (to a rounding allowance)."""
    lower, upper = v - 6.0 * sigma, v + 6.0 * sigma
    slack = 1e-9 * (upper - lower)
    if not lower - slack <= b_star <= upper + slack:
        return False
    b_star = min(max(b_star, lower), upper)
    best = utility(n, v, sigma, b_star)
    for i in range(ARGMAX_GRID):
        u = utility(n, v, sigma, lower + (upper - lower) * i / (ARGMAX_GRID - 1))
        if best < u - 1e-6 * (1.0 + abs(u)):
            return False
    return True
