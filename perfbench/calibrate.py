"""Machine-speed calibration for timings made on a shared host.

On a host shared with other tenants the same code runs up to ~40% slower
for minutes at a time, and CPU time slows as much as wall time, so two
runs minutes apart disagree by more than the regression bounds. A fixed
kernel of interpreter work (integer loop, dict of strings) and numpy
element-wise work over 1e5 doubles in fixed buffers, which the benchmark
owns and v2vsec cannot change, is timed between passes. ``slowdown()`` is
the median of its time over ``REFERENCE_NS``, about the time it takes on
the reference machine when nothing else runs there (Intel Xeon, 2 vCPUs,
Python 3.11.7, numpy 2.4.6).
Dividing a pass's timings by the slowdown measured around it states them
at the reference machine's speed.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_NS = 13_000_000
REPEATS = 3  # kernel runs per calibration; their median counts
_A = np.random.default_rng(0).standard_normal(100_000)
_B, _C = np.empty_like(_A), np.empty_like(_A)


def kernel_ns() -> int:
    t0 = time.perf_counter_ns()
    s = 0
    for i in range(45_000):
        s += i * i % 7
    d = {}
    for i in range(15_000):
        d[str(i)] = i * 1.5
    for _ in range(20):  # into fixed buffers, so the program's heap cannot change the cost
        np.multiply(_A, _A, out=_B)
        np.log2(np.add(_B, 1.0, out=_B), out=_B)
        np.subtract(_B, np.maximum(_A, 0.0, out=_C), out=_B)
        _B.sum()
    return time.perf_counter_ns() - t0


def slowdown() -> float:
    """How many times slower the host runs the kernel now than the reference machine."""
    return sorted(kernel_ns() for _ in range(REPEATS))[REPEATS // 2] / REFERENCE_NS


kernel_ns()  # first call pays for allocations the later ones reuse
