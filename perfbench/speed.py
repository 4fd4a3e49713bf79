"""A clock that reads reference-speed seconds on a host whose speed drifts.

On a shared host the same single-threaded Python work can take twice as
long from one minute to the next, because other tenants contend for the
core and its caches; process CPU time drifts the same way, so it does not
help.  `SpeedClock` samples the host's current speed while the benchmark
measures: a SIGALRM timer interrupts the work every TICK_S seconds and
runs `kernel_s`, a fixed pure-Python sparse product over Gaussian-rational
coefficients (the same kind of work the engine does; it lives here, so no
change to the engine changes it).  Work between two ticks is scaled by
REF_S over the median of the kernel times around it.  `span(a, b)`
therefore gives the seconds the work between two perf_counter stamps
would have taken at the speed at which the kernel takes REF_S, and the
kernel's own time is left out.

One process, no threads: the timer's handler runs in the main thread
between bytecodes of the engine's code.
"""

from __future__ import annotations

import random
import signal
import statistics
from bisect import bisect_right
from math import gcd
from time import perf_counter

TICK_S = 0.1
# speed estimate: median kernel time over this many ticks on each side
WINDOW = 3
# the kernel's time on a 2-core x86-64 host when the host is least loaded;
# a constant, so reference seconds are comparable across runs and commits
REF_S = 0.006


def _poly(rng: random.Random, n: int) -> dict:
    return {
        tuple(rng.randrange(6) for _ in range(3)): (
            rng.randrange(-9, 10), rng.randrange(-9, 10), rng.randrange(1, 5))
        for _ in range(n)
    }


def _mul(a: dict, b: dict) -> dict:
    """Product of sparse polynomials {exponents: (re, im, den)}."""
    out: dict = {}
    for ma, (x1, y1, d1) in a.items():
        for mb, (x2, y2, d2) in b.items():
            m = tuple(i + j for i, j in zip(ma, mb))
            an, bn, d = x1 * x2 - y1 * y2, x1 * y2 + y1 * x2, d1 * d2
            c = out.get(m)
            if c is not None:
                an, bn, d = an * c[2] + c[0] * d, bn * c[2] + c[1] * d, d * c[2]
            g = gcd(an, bn, d)
            if g > 1:
                an, bn, d = an // g, bn // g, d // g
            if an or bn:
                out[m] = (an, bn, d)
            else:
                out.pop(m, None)
    return out


_rng = random.Random(1806)
_A, _B = _poly(_rng, 40), _poly(_rng, 40)


def kernel_s() -> float:
    """Seconds the kernel takes now: three products of 40-term polynomials."""
    t0 = perf_counter()
    for _ in range(3):
        _mul(_A, _B)
    return perf_counter() - t0


class SpeedClock:
    """Samples the host's speed while it is entered.  Stamp the work with
    perf_counter() readings; after the clock exits, `span(a, b)` gives the
    reference-speed seconds of the work between stamps a and b."""

    def __init__(self):
        self.ticks: list[tuple[float, float]] = []  # (start, end) of each kernel
        self._old = None
        self._busy = False
        self._ends: list[float] = []
        self._cum: list[float] = []
        self._scale: list[float] = []

    def _tick(self, signum=None, frame=None) -> None:
        if self._busy:  # a tick that falls due inside a kernel is dropped
            return
        self._busy = True
        t0 = perf_counter()
        kernel_s()
        self.ticks.append((t0, perf_counter()))
        self._busy = False

    def __enter__(self) -> "SpeedClock":
        for _ in range(WINDOW):
            self._tick()
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        for _ in range(WINDOW):
            self._tick()
        # the work between kernels j and j+1 runs at REF_S over the median
        # of the WINDOW kernel times on each side of it
        k = self.kernel_times()
        self._ends = [end for _, end in self.ticks]
        self._cum = [0.0]
        for j in range(len(k) - 1):
            scale = REF_S / statistics.median(k[max(0, j + 1 - WINDOW): j + 1 + WINDOW])
            self._scale.append(scale)
            self._cum.append(self._cum[-1] + (self.ticks[j + 1][0] - self._ends[j]) * scale)

    def _at(self, t: float) -> float:
        """Reference-speed seconds of work from the first kernel to t."""
        j = bisect_right(self._ends, t) - 1
        if j < 0:
            return 0.0
        if j == len(self._scale):
            return self._cum[j]
        return self._cum[j] + (min(t, self.ticks[j + 1][0]) - self._ends[j]) * self._scale[j]

    def span(self, a: float, b: float) -> float:
        return self._at(b) - self._at(a)

    def kernel_times(self) -> list[float]:
        return [end - start for start, end in self.ticks]

    def speed(self) -> float:
        """Median host speed while the clock ran, as REF_S / kernel time."""
        return REF_S / statistics.median(self.kernel_times())
