"""Machine-speed calibration for the benchmark's timings.

The shared 2-core host this benchmark was tuned on changes speed with its
neighbours' load: the wall time of a fixed set of team solves swung by up to
1.8x within two minutes, while the process's CPU time tracked its wall time
(so the slowdown is per instruction, not descheduling). The kernel's own time
flips between about 6 and 11 ms from one second to the next. A run therefore
times a fixed kernel every :data:`INTERVAL_S` seconds next to its ops, and
scales each timed interval by ``REFERENCE_S / kernel time``, taking the median
of the samples from :data:`WINDOW_S` before the interval to :data:`WINDOW_S`
after it, so the samples bracket the interval rather than trail it.

The kernel is a frozen copy of the level fill's inner loops (polynomial
evaluation, bisection inversion, common-level bisection), the code that takes
most of every workload's time, so it slows down with the host the way the
program does. It imports nothing from ``teamsched``: a change to the program
never changes the kernel.
"""

from __future__ import annotations

import math
import statistics
import time

#: kernel time on a quiet 2-core Intel Xeon (Python 3.11); normalized times
#: read as wall times on that machine
REFERENCE_S = 0.0055
#: seconds between kernel samples
INTERVAL_S = 0.25
#: samples this close to an interval set its scale; at least MIN_SAMPLES do
WINDOW_S = 0.5
MIN_SAMPLES = 2

_LEVELS = ((0.1, 0.5, 0.3, 0.2), (0.1, 0.7, 0.2), (0.1, 0.4, 0.1, 0.3))


def _poly(coeffs, x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _invert(coeffs, target: float, lo: float, hi: float) -> float:
    if _poly(coeffs, hi) <= target:
        return hi
    a, b = lo, hi
    for _ in range(200):
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break
        if _poly(coeffs, mid) <= target:
            a = mid
        else:
            b = mid
    return a


def _fill(mass: float, background: list[float]) -> list[float]:
    def alloc(level: float) -> list[float]:
        out = [0.0] * len(_LEVELS)
        for i, coeffs in enumerate(_LEVELS):
            b = background[i]
            if _poly(coeffs, b) <= level:
                out[i] = _invert(coeffs, level, b, b + mass) - b
        return out

    lo = min(_poly(c, b) for c, b in zip(_LEVELS, background))
    hi = max(_poly(c, b + mass) for c, b in zip(_LEVELS, background))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if math.fsum(alloc(mid)) < mass:
            lo = mid
        else:
            hi = mid
    return alloc(hi)


def kernel_seconds() -> float:
    """Wall time of one run of the calibration kernel."""
    start = time.perf_counter()
    for k in range(2):
        _fill(2.0 + 0.1 * k, [0.1, 0.2, 0.3])
    return time.perf_counter() - start


class SpeedScale:
    """Kernel samples over a run, to turn wall times into times at the
    reference speed once the samples after an interval are in."""

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self._samples: list[tuple[float, float]] = []  # (when, kernel seconds)
        self._last = -math.inf

    def sample(self, force: bool = False) -> None:
        """Times the kernel, unless it ran less than :data:`INTERVAL_S` ago
        and ``force`` is false."""
        if force or time.perf_counter() - self._last >= INTERVAL_S:
            when = time.perf_counter()
            self._samples.append((when, kernel_seconds()))
            self._last = time.perf_counter()

    def factor(self, start: float, end: float) -> float:
        """Reference speed over the speed measured around ``[start, end]``."""
        near = [k for t, k in self._samples if start - WINDOW_S <= t <= end + WINDOW_S]
        if len(near) < MIN_SAMPLES:
            mid = 0.5 * (start + end)
            nearest = sorted(self._samples, key=lambda sample: abs(sample[0] - mid))
            near = [k for _, k in nearest[:MIN_SAMPLES]]
        return REFERENCE_S / statistics.median(near)

    def timeline(self) -> list[tuple[float, float]]:
        """``(seconds since creation, kernel seconds)`` of every sample."""
        return [(t - self.t0, k) for t, k in self._samples]
