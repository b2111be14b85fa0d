"""Host-speed calibration of the benchmark's end-to-end times.

The speed of a shared host drifts by a fifth or more over seconds to
minutes, as other tenants come and go; identical operations then vary by up
to 1.7x.  A run times a fixed kernel before every operation and after the
last, and scales each operation's time by REFERENCE_S over the mean kernel
time around it.  Times then read as on a host that runs the kernel in
REFERENCE_S, the 2-core reference machine of bench/README.md at its usual
speed.  The kernel is benchmark code, the same on both sides of any
comparison; runs also report their raw times.

The kernel builds 1500 small tuples, indexes them in a dict and walks it:
object allocation, hashing and dict lookups, as the package's Python code
does.  Of the kernels tried (a plain float loop, small numpy
calls, per-(cell, drop) generator set-up, small validated dataclasses, an
8 MB array copy, and mixes of them), it tracked the operations best overall:
over four to five minutes of operations alternating with kernel timings,
through the host's slow and fast phases, the scaled medians of 30
consecutive studies had a log standard deviation of 0.040 where the float
loop left 0.068, and of 30 small netsim runs 0.059 against 0.082; over 10
operations it was level on netsim-wide (0.042 against 0.043) and a little
worse on CLI commands (0.054 against 0.045).
"""

from __future__ import annotations

import statistics
from time import perf_counter

REFERENCE_S = 0.32e-3
KERNEL_REPEATS = 3  # kernel runs per calibration point; their median is kept


def kernel_s() -> float:
    start = perf_counter()
    objs = [(i, float(i), str(i)) for i in range(1500)]
    index = {obj[2]: obj for obj in objs}
    total = 0.0
    for key in index:
        total += index[key][1]
    return perf_counter() - start


class Calibrator:
    def __init__(self) -> None:
        kernel_s()  # warm-up
        self.points: list[float] = []

    def point(self) -> int:
        """Time the kernel now; returns the index of this calibration point."""
        self.points.append(statistics.median(kernel_s() for _ in range(KERNEL_REPEATS)))
        return len(self.points) - 1

    def scale(self, seconds: float, before: int) -> float:
        """Reference-speed time of an operation that ran between calibration
        points `before` and `before + 1`."""
        around = self.points[before] + self.points[before + 1]
        return seconds * REFERENCE_S * 2.0 / around
