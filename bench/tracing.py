"""Per-function spans recorded from outside the library.

``Tracer.install`` replaces each traced public function with a timing
wrapper: on its defining module or class, and on every ``ofasim`` module
that imported the same object under the same name (``ofasim.cli.settle``,
``ofasim.simulation.settle``, ...). Nothing under ``src/`` changes.
``uninstall`` restores the originals.

A function's self time is its wall time minus the wall time of the traced
calls made inside it. Spans are kept in memory as per-name totals. Spans
named in ``alloc_spans`` also run each call under ``tracemalloc`` and keep
the largest per-call peak; that slows them, so such a tracer is used for
memory only.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
import tracemalloc

# (module, qualified name) of every traced function, grouped by layer.
TRACED = [
    ("ofasim.money", "parse_amount"),
    ("ofasim.money", "format_amount"),
    ("ofasim.auction", "admit_operations"),
    ("ofasim.settlement", "settle"),
    ("ofasim.settlement", "guaranteed_minimum"),
    ("ofasim.escrow", "EscrowLedger.reserve"),
    ("ofasim.escrow", "EscrowLedger.settle_reservation"),
    ("ofasim.escrow", "EscrowLedger.cancel_reservation"),
    ("ofasim.escrow", "EscrowLedger.prefetch_snapshot"),
    ("ofasim.censorship", "resistance_sweep"),
    ("ofasim.equilibrium", "optimal_bid_details"),
    ("ofasim.simulation", "run_iid_failure"),
    ("ofasim.simulation", "run_normal_valuation"),
    ("ofasim.simulation", "run_throughput_sweep"),
    ("ofasim.simulation", "run_spoof_attack"),
    ("ofasim.simulation", "run_timeline"),
    ("ofasim.cli", "main"),
    ("ofasim.cli", "cmd_settle"),
    ("ofasim.cli", "cmd_sweep"),
    ("ofasim.cli", "cmd_simulate"),
]

LAYERS = ("money", "auction", "settlement", "escrow", "censorship", "equilibrium", "simulation", "cli")


def span_name(module: str, qualname: str) -> str:
    """``ofasim.escrow``, ``EscrowLedger.reserve`` -> ``escrow.reserve``;
    the CLI's ``cmd_settle`` -> ``cli.settle``."""
    leaf = qualname.rsplit(".", 1)[-1]
    if leaf.startswith("cmd_"):
        leaf = leaf[4:]
    return f"{module.split('.', 1)[1]}.{leaf}"


class Tracer:
    """Per-span call counts, self and total time, plus domain counters."""

    def __init__(self, alloc_spans: tuple[str, ...] = ()) -> None:
        self.alloc_spans = alloc_spans
        self.peak_alloc_mb = 0.0
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.counters: dict[str, float] = {
            "escrow.reserve.rejected": 0,
            "escrow.pending_peak": 0,
            "auction.admit_operations.candidates": 0,
            "auction.admit_operations.admitted": 0,
            "equilibrium.optimal_bid_details.fallbacks": 0,
        }
        self._live_handles: set[int] = set()
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    # -- observers of individual spans ------------------------------------

    def _after(self, name: str, args, result, error) -> None:
        c = self.counters
        if name == "escrow.reserve":
            if error is not None:
                if type(error).__name__ == "InsufficientEscrow":
                    c["escrow.reserve.rejected"] += 1
            else:
                self._live_handles.add(result.handle)
                c["escrow.pending_peak"] = max(c["escrow.pending_peak"], len(self._live_handles))
        elif name in ("escrow.settle_reservation", "escrow.cancel_reservation") and error is None:
            self._live_handles.discard(args[1])
        elif name == "auction.admit_operations" and error is None:
            c["auction.admit_operations.candidates"] += len(args[0])
            c["auction.admit_operations.admitted"] += len(result.solver_ops)
        elif name == "equilibrium.optimal_bid_details" and error is None:
            c["equilibrium.optimal_bid_details.fallbacks"] += result.method == "golden-section"

    def _measure_alloc(self, fn):
        @functools.wraps(fn)
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                self.peak_alloc_mb = max(self.peak_alloc_mb, peak)
                tracemalloc.stop()

        return measured

    def _wrap(self, name: str, fn):
        if name in self.alloc_spans:
            fn = self._measure_alloc(fn)
        self.calls.setdefault(name, 0)
        self.self_ns.setdefault(name, 0)
        local = self._local
        observe = self._after

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            stack.append(0)
            error = result = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                elapsed = time.perf_counter_ns() - start
                inner = stack.pop()
                if stack:
                    stack[-1] += elapsed
                self.calls[name] += 1
                self.self_ns[name] += elapsed - inner
                observe(name, args, result, error)

        return traced

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for module_name, qualname in TRACED:
            owner = sys.modules.get(module_name)
            if owner is None:  # a module this workload never imports
                continue
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(span_name(module_name, qualname), original)
            holders = [owner]
            if not path:  # a module-level function: also every imported binding
                holders += [
                    mod
                    for key, mod in list(sys.modules.items())
                    if (key == "ofasim" or key.startswith("ofasim."))
                    and mod is not owner
                    and getattr(mod, attr, None) is original
                ]
            for holder in holders:
                self._restore.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()
