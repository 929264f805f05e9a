"""Reference kernel: the yardstick that normalises timings to a fixed speed.

On a shared host, the CPU speed a VM gets can drift by tens of percent
within seconds, in user time as well as in wall time, with no steal time to
show it.  A fixed piece of pure-Python work is therefore timed right before
every op, and each op's time is scaled by ``REFERENCE_S / t_ref``, where
``t_ref`` is the mean of the kernel times taken right before and right
after the op.  A normalised time reads as the time the op would take on a
host where the kernel takes ``REFERENCE_S``; that is about the median speed
of the 2-vCPU Xeon VM with Python 3.11.7 the kernel was sized on.  The
kernel uses no nilorbit code, so a change to the library moves the op
times and leaves the yardstick alone.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.001  # the kernel's nominal time: normalised figures are at this speed
EXPECTED = (318, Fraction(96, 97))


def kernel():
    """An integer orbit walk with a dict of tuples, then an affine orbit of a
    Fraction mod 1: the shapes of work the library's hot paths do."""
    seen, x = {}, (1, 2)
    while x not in seen:
        seen[x] = len(seen)
        x = ((2 * x[0] + x[1]) % 317, (x[0] + x[1]) % 317)
    y = Fraction(1, 97)
    for _ in range(120):
        y = (3 * y + Fraction(1, 7)) % 1
    return len(seen), y


def sample() -> float:
    """Time one run of the kernel, in seconds."""
    t0 = time.perf_counter()
    out = kernel()
    dt = time.perf_counter() - t0
    if out != EXPECTED:
        raise AssertionError(f"reference kernel returned {out}")
    return dt


def measure(n: int = 31) -> float:
    """Median kernel time over n runs, after one warm-up run."""
    sample()
    return statistics.median(sample() for _ in range(n))


def normalise(seconds: float, ref: float) -> float:
    return seconds * REFERENCE_S / ref


def normalise_each(latencies: list[float], refs: list[float]) -> list[float]:
    """Latency i scaled by the mean of refs[i] and refs[i + 1], the kernel
    times taken right before and right after its op."""
    return [normalise(dt, (refs[i] + refs[min(i + 1, len(refs) - 1)]) / 2)
            for i, dt in enumerate(latencies)]
