"""Scaling of measured times to a fixed reference speed.

The benchmark runs on a shared 2-core VM whose CPU speed drifts by 1.5x to
2.8x over spells of seconds to minutes, on either vCPU, with next to no steal
time reported (see "Noise" in README.md). Wall time alone then says more
about the neighbours than about the program. So, between operations and at
most every ``CALIBRATE_EVERY_NS``, a fixed pure-Python loop is timed, and
each stretch of work between two such timings is scaled by
``REFERENCE_NS`` over the mean of the two. A scaled figure reads as the time
the work would take on a machine that runs the loop in ``REFERENCE_NS``.
The loop does the kind of work the library does (Fraction arithmetic and
dict stores), and it does not touch ``ofasim``, so a change to the program
moves the scaled figures and not the loop.
"""

from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_ITERATIONS = 250
# the loop's time on the 2-core Xeon VM the README describes, in its fast spells
REFERENCE_NS = 750_000
CALIBRATE_EVERY_NS = 50_000_000


def reference_loop() -> Fraction:
    total = Fraction(0)
    slots = {}
    for i in range(REFERENCE_ITERATIONS):
        total += Fraction(i % 97 + 1, 1000 + i % 7)
        slots[i % 64] = total
    return total


def time_reference() -> int:
    """Fastest of two timings of the reference loop, in ns."""
    best = None
    for _ in range(2):
        start = time.perf_counter_ns()
        reference_loop()
        took = time.perf_counter_ns() - start
        best = took if best is None else min(best, took)
    return best


def typical_reference() -> float:
    """Median of 40 timings of the reference loop (about 30 to 80 ms), in
    ns: the machine's speed over a stretch, where ``time_reference`` takes
    its best moment."""
    timings = []
    for _ in range(40):
        start = time.perf_counter_ns()
        reference_loop()
        timings.append(time.perf_counter_ns() - start)
    timings.sort()
    return (timings[19] + timings[20]) / 2


class Clock:
    """Calibrates around one round: call ``begin_round``, pass ``tick`` to
    the round, which calls it once before each operation (outside the
    operation's timing), then call ``end_round``."""

    def begin_round(self) -> None:
        self.ops = 0
        self.references = []  # (index of the next operation, reference ns)
        self.work_ns = []  # wall time between consecutive calibrations
        self._calibrate()

    def tick(self) -> None:
        if time.perf_counter_ns() - self._resumed >= CALIBRATE_EVERY_NS:
            self._calibrate()
        self.ops += 1

    def end_round(self) -> tuple[float, list[float]]:
        """(the round's work in scaled ns, the scale of each operation)."""
        self._calibrate()
        scales = [
            2 * REFERENCE_NS / (ref_a + ref_b)
            for (_, ref_a), (_, ref_b) in zip(self.references, self.references[1:])
        ]
        per_op = []
        for scale, (first, _), (end, _) in zip(scales, self.references, self.references[1:]):
            per_op += [scale] * (end - first)
        return sum(w * s for w, s in zip(self.work_ns, scales)), per_op

    def _calibrate(self) -> None:
        if self.references:
            self.work_ns.append(time.perf_counter_ns() - self._resumed)
        self.references.append((self.ops, time_reference()))
        self._resumed = time.perf_counter_ns()
