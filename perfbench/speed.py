"""A speed reference for timing on a shared machine.

On a machine shared with other tenants, the throughput of the same pure-Python
work drifts by tens of percent over tens of seconds, for minutes at a time, so
the median of a run's wall times still moves that much between runs.  The
benchmark therefore samples a fixed reference kernel while it measures and
reports each time scaled to a machine on which the kernel takes ``REF_S``.

The kernel is exact ``Fraction`` polynomial arithmetic with small dict and
list churn, the operation mix of the ``spets`` cyclotomic layer; it is frozen
here and does not call ``spets``, so a change to the library never changes it.
It runs with the garbage collector off, so that the library's collector
settings and live heap, which the kernel shares when it samples from inside
the library's process, do not move it either.

Samples are uniform in wall time, so the mean of ``REF_S / sample`` is the
reference work done per wall second, and ``wall seconds x that mean`` is the
time at the reference speed.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction

REF_S = 0.001       # kernel time, in seconds, at the reference speed
PERIOD_S = 0.1      # sampling period while in-process work runs
EDGE_SAMPLES = 3    # samples on each side of work that cannot be sampled


def kernel() -> None:
    a = [Fraction(1, 3), Fraction(-2, 5), Fraction(3, 7), Fraction(1, 2)]
    b = [Fraction(2, 3), Fraction(1, 5), Fraction(-1, 7), Fraction(5, 2)]
    seen = {}
    for r in range(12):
        acc = [Fraction(0)] * 7
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                acc[i + j] += x * y
        a = [acc[k] - acc[k + 4] if k < 3 else acc[k] for k in range(4)]
        a = [Fraction(c.numerator % 97 + 1, c.denominator % 89 + 1) for c in a]
        seen[tuple(a)] = r


class SpeedProbe:
    """Speed samples of the reference kernel, and the time they took."""

    def __init__(self):
        self.ratios: list[float] = []
        self.spent = 0.0

    def sample(self, _signum=None, _frame=None) -> None:
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            kernel()
            dt = time.perf_counter() - t0
        finally:
            if collecting:
                gc.enable()
        self.ratios.append(REF_S / dt)
        self.spent += dt

    def edge(self) -> None:
        """Samples just before or after work run in another process."""
        for _ in range(EDGE_SAMPLES):
            self.sample()

    @contextmanager
    def sampling(self):
        """Sample every ``PERIOD_S`` from a SIGALRM handler while the block
        runs; the caller subtracts the growth of ``spent`` from its timing."""
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)

    def scale(self, seconds: float) -> float:
        """``seconds`` of wall time expressed at the reference speed."""
        if not self.ratios:
            self.sample()
        return seconds * statistics.fmean(self.ratios)
