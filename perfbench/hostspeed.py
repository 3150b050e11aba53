"""Scaling of measured times to a reference host speed.

The host this benchmark was defined on shares its cores with other tenants,
and its speed swings by up to 2x over seconds to minutes: a fixed
pure-Python loop took between 0.145 s and 0.31 s within one minute, and
identical benchmark runs a few minutes apart differed by 30% or more.  Each
timed stretch is therefore bracketed by a short reference loop that does
not touch tracelab, and a measured time is reported as

    scaled = measured * REF_S / mean(loop time before, loop time after)

i.e. as it would read with the loop taking REF_S seconds.  On that host the
scaling cut the quartile spread of 2-second windows of identical work from
12-17% to 3-5%.  The unscaled times are reported alongside.
"""

from __future__ import annotations

import bisect
import time

LOOP_ITERATIONS = 30_000
# Median loop time on the defining host (2 vCPUs, Python 3.11).
REF_S = 0.0025


def loop_seconds() -> float:
    """Time of a fixed pure-Python loop: how fast the host runs right now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(LOOP_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - t0


class HostSpeed:
    """Reference-loop samples taken between measurements, by position.

    ``mark(pos)`` before measurement ``pos`` takes a sample when at least
    ``every_s`` of measured time has passed since the last one (always for
    the first); ``close(n)`` takes the final sample after measurement n-1.
    """

    def __init__(self, every_s: float = 0.0):
        self.every_s = every_s
        self.positions: list[int] = []
        self.loops: list[float] = []
        self._since = 0.0

    def mark(self, pos: int, measured_s: float = 0.0) -> None:
        self._since += measured_s
        if not self.positions or self._since >= self.every_s:
            self.positions.append(pos)
            self.loops.append(loop_seconds())
            self._since = 0.0

    def close(self, n: int) -> None:
        self.positions.append(n)
        self.loops.append(loop_seconds())

    def scale(self, times: list[float]) -> list[float]:
        """Each time scaled by the samples taken just before and just after it."""
        out = []
        for i, t in enumerate(times):
            after = bisect.bisect_right(self.positions, i)
            loop = (self.loops[after - 1] + self.loops[after]) / 2
            out.append(t * REF_S / loop)
        return out
