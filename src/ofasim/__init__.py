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

from .auction import (
    AuctionTransaction,
    Behavior,
    GasSchedule,
    SolverOperation,
    admit_operations,
    solver_gas_budget,
)
from .censorship import (
    CensorshipScenario,
    censorship_resistance,
    naive_censorship_cost,
    resistance_sweep,
)
from .equilibrium import (
    BaselineGame,
    BidSearchResult,
    DiscreteTimeGame,
    NoInteriorOptimumError,
    baseline_utility,
    closed_form_bid,
    conditional_success_value,
    deviation_utility,
    discrete_time_utility,
    optimal_bid_details,
    optimal_bid_numeric,
    rank_sum_utility,
    simplified_utility,
    utility_gradient,
)
from .escrow import EscrowLedger, InsufficientEscrow, PendingReservation, required_escrow
from .money import FRACTIONAL_DIGITS, format_amount, parse_amount
from .settlement import (
    OpOutcome,
    SettlementResult,
    failure_cost,
    guaranteed_minimum,
    settle,
    settle_patterns,
    solver_payoff,
)

# The Monte-Carlo runners need numpy; load them on first use (PEP 562), so that
# settlement, escrow and the other exact modules import without it.
_SIMULATION_NAMES = frozenset(
    {
        "EmpiricalStat",
        "IidFailure",
        "NormalValuation",
        "SimConfig",
        "SpoofAttack",
        "ThroughputSweep",
        "Timeline",
        "TimelineConfig",
        "TimelineEvent",
        "TimelineEventKind",
        "chain_quiet_between_order_and_guarantee",
        "run_iid_failure",
        "run_normal_valuation",
        "run_simulation",
        "run_spoof_attack",
        "run_throughput_sweep",
        "run_timeline",
    }
)

__version__ = "0.1.0"

__all__ = [
    "AuctionTransaction",
    "BaselineGame",
    "Behavior",
    "BidSearchResult",
    "CensorshipScenario",
    "DiscreteTimeGame",
    "EmpiricalStat",
    "EscrowLedger",
    "FRACTIONAL_DIGITS",
    "GasSchedule",
    "IidFailure",
    "InsufficientEscrow",
    "NoInteriorOptimumError",
    "NormalValuation",
    "OpOutcome",
    "PendingReservation",
    "SettlementResult",
    "SimConfig",
    "SolverOperation",
    "SpoofAttack",
    "ThroughputSweep",
    "Timeline",
    "TimelineConfig",
    "TimelineEvent",
    "TimelineEventKind",
    "admit_operations",
    "baseline_utility",
    "censorship_resistance",
    "chain_quiet_between_order_and_guarantee",
    "closed_form_bid",
    "conditional_success_value",
    "deviation_utility",
    "discrete_time_utility",
    "failure_cost",
    "format_amount",
    "guaranteed_minimum",
    "naive_censorship_cost",
    "optimal_bid_details",
    "optimal_bid_numeric",
    "parse_amount",
    "rank_sum_utility",
    "required_escrow",
    "resistance_sweep",
    "run_iid_failure",
    "run_normal_valuation",
    "run_simulation",
    "run_spoof_attack",
    "run_throughput_sweep",
    "run_timeline",
    "settle",
    "settle_patterns",
    "simplified_utility",
    "solver_gas_budget",
    "solver_payoff",
    "utility_gradient",
]


def __getattr__(name: str) -> object:
    if name != "simulation" and name not in _SIMULATION_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # import_module, not ``from . import``: that statement calls this hook again
    simulation = importlib.import_module(".simulation", __name__)
    return simulation if name == "simulation" else getattr(simulation, name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | _SIMULATION_NAMES | {"simulation"})
