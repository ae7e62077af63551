"""Machine-speed probe and the speed-adjusted stopwatch built on it."""

from __future__ import annotations

import math
import signal
import statistics
import time
from fractions import Fraction

import numpy as np

# fastest time of `_probe_kernel` on the reference machine (2 shared
# cores, Python 3.11); adjusted times are expressed at this probe speed
PROBE_REF_S = 4.0e-4


def _probe_kernel() -> None:
    s = Fraction(0)
    for i in range(1, 150):
        s += Fraction(1, i % 13 + 1)
    a = np.arange(8.0)
    for _ in range(20):
        a = np.sqrt(a * a + 1.0)


def probe() -> float:
    """Duration of a fixed mix of Fraction and small-array numpy work, the
    library's two kinds of arithmetic; the faster of two runs."""
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        _probe_kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class Stopwatch:
    """Wall time of one operation, and that time adjusted for the machine's
    speed: raw * PROBE_REF_S / (mean probe time), with probes just before
    and after the operation and, for a long one, every PROBE_EVERY_S
    during it from a SIGALRM handler; the handler's own time is taken out
    of the raw time.

    On a shared machine the same code runs up to 4x slower in phases that
    last seconds to minutes and hit both cores; a probe taken next to the
    operation slows by the same factor, so the adjusted time stays put
    while the raw one moves. Work the library does on another thread
    would slow the probe too and be partly hidden: compare raw times."""

    PROBE_EVERY_S = 0.05

    def __enter__(self):
        self.probes = [probe()]
        self.in_handler_s = 0.0
        self.t0 = time.perf_counter()  # every tick falls after this
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PROBE_EVERY_S,
                         self.PROBE_EVERY_S)
        return self

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.probes.append(probe())
        self.in_handler_s += time.perf_counter() - t0

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        end = time.perf_counter()  # and before this
        signal.signal(signal.SIGALRM, self._old)
        self.raw_s = end - self.t0 - self.in_handler_s
        self.probes.append(probe())
        self.speed = PROBE_REF_S / statistics.mean(self.probes)
        self.adjusted_s = self.raw_s * self.speed
        return False
