"""Failure-cost settlement for on-chain order flow auctions.

A library, simulator and CLI for auctions where solvers bid for the right to
execute a user's order and operations run in descending bid order until one
succeeds. Reverting operations pay a failure cost proportional to the gas
they reserved, which funds a guaranteed minimum payout for the beneficiary,
backs per-auctioneer escrow accounting, raises the cost of censorship by
gas exhaustion, and shapes equilibrium bidding.
"""

from __future__ import annotations

import importlib

#: Public names by defining module.
_EXPORTS = {
    "auction": (
        "AuctionTransaction", "Behavior", "GasSchedule", "SolverOperation",
        "admit_operations",
    ),
    "censorship": (
        "CensorshipScenario", "censorship_resistance", "naive_censorship_cost",
        "resistance_sweep",
    ),
    "equilibrium": (
        "BaselineGame", "BidSearchResult", "DiscreteTimeGame", "baseline_utility",
        "closed_form_bid", "conditional_success_value", "deviation_utility",
        "discrete_time_utility", "optimal_bid_details", "rank_sum_utility",
        "simplified_utility", "utility_gradient",
    ),
    "escrow": ("EscrowLedger", "InsufficientEscrow", "PendingReservation", "required_escrow"),
    "money": ("FRACTIONAL_DIGITS", "format_amount", "parse_amount"),
    "scenarios": (
        "IidFailure", "NormalValuation", "SimConfig", "SpoofAttack", "ThroughputSweep", "Timeline",
        "TimelineConfig", "TimelineEvent", "TimelineEventKind", "run_simulation",
        "run_spoof_attack", "run_timeline", "chain_quiet_between_order_and_guarantee",
    ),
    "settlement": (
        "OpOutcome", "SettlementResult", "failure_cost", "guaranteed_minimum", "settle",
        "settle_patterns", "solver_payoff",
    ),
    "simulation": ("run_iid_failure", "run_normal_valuation", "run_throughput_sweep"),
}

#: Modules that load on first use (PEP 562), with their names: ``import ofasim``
#: runs only the exact core that admits, settles and escrows an order, and the
#: Monte-Carlo runners need numpy, which nothing else loads.
_LAZY = {
    name: module
    for module in ("censorship", "equilibrium", "scenarios", "simulation")
    for name in (module, *_EXPORTS[module])
}

__version__ = "0.1.0"

__all__ = sorted(name for names in _EXPORTS.values() for name in names)

for _module, _names in _EXPORTS.items():
    if _module not in _LAZY:
        _source = importlib.import_module(f".{_module}", __name__)
        globals().update({name: getattr(_source, name) for name in _names})
del _module, _names, _source


def __getattr__(name: str) -> object:
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # import_module, not ``from . import``: that statement calls this hook again
    source = importlib.import_module(f".{module}", __name__)
    return source if name == module else getattr(source, name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
