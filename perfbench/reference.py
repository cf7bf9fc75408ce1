"""A fixed reference loop that measures how fast the host runs right now.

The benchmark's host is shared: the same query list reads up to 2x slower
or faster as other tenants load the machine, and that state switches within
seconds, so raw times of the same code spread by 0.2-0.3 (IQR / median)
from run to run. The loop below does the kind of work the library does
(interpreter-bound Python with small numpy calls) on fixed data and never
calls the library. Timing it just before and just after a block of work
gives the host's speed during that block; a time divided by the mean of
the two and multiplied by the loop's nominal time is the time the work
would take at reference speed.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

NOMINAL_S = 0.0005   # the loop's time at reference speed (~its fastest on a 2-vCPU Xeon VM)
BLOCK_S = 0.02       # query latencies are scaled in blocks of about this much work

_SORTED = np.sort(np.random.default_rng(12345).uniform(0.0, 1.0, 4096))
_PROBES = np.random.default_rng(54321).uniform(0.0, 1.0, 100).tolist()


def _loop() -> float:
    s = 0.0
    for q in _PROBES:
        i = int(np.searchsorted(_SORTED, q))
        s += float(_SORTED[max(0, i - 8):i + 8].sum())
    return s


def _time_loop() -> float:
    t0 = perf_counter()
    _loop()
    return perf_counter() - t0


class Clock:
    """Scales the wall time of consecutive blocks of work to reference speed."""

    def __init__(self):
        _loop()   # warm-up
        self.last = _time_loop()
        self.loops = [self.last]

    def scale(self) -> float:
        """Ends the block that began at the previous call (or at creation):
        returns the factor that takes its wall times to reference speed."""
        now = _time_loop()
        factor = NOMINAL_S / (0.5 * (self.last + now))
        self.last = now
        self.loops.append(now)
        return factor

    def timed(self, fn):
        """Runs fn() as a block of its own; returns (result, wall seconds,
        seconds at reference speed)."""
        self.scale()
        t0 = perf_counter()
        out = fn()
        wall = perf_counter() - t0
        return out, wall, wall * self.scale()

    def host_speed(self) -> float:
        """Median loop time over nominal: 1.0 at reference speed, 2.0 at half."""
        return statistics.median(self.loops) / NOMINAL_S
