"""Host-speed calibration: a fixed pure-Python kernel, timed between ops.

The benchmark shares a few cores of a busy host, whose speed for pure
Python drifts by 0.7x to 1.4x within a minute, and by up to a third between
samples milliseconds apart.  A run therefore times this kernel between the
ops it measures and reports every time in reference seconds: the measured
seconds times REF_S over the mean kernel time within WINDOW_S of them.  The
kernel does not call skewmorph, so a change to the program moves the
reported times as much as it moves the measured ones.

The kernel mixes what skewmorph does most: tuple permutations, dict and
set lookups, small list and dict builds.
"""

from __future__ import annotations

import bisect
import gc
import random
import statistics
import time

# A nominal kernel() time, near its median on the 2-core x86-64 (Xeon) box
# the benchmark was written on.  It fixes the scale of every reported time,
# and nothing else.
REF_S = 0.0065
# Samples this close to an interval set its speed: near enough to follow
# the drift, and enough of them to average out a single sample's noise.
WINDOW_S = 1.0

_PERM = tuple(random.Random(1).sample(range(40), 40))


def kernel() -> int:
    counts: dict[tuple[int, int], int] = {}
    acc = 0
    for i in range(6000):
        key = (i, i * 7 % 13)
        counts[key] = counts.get(key, 0) + 1
        acc += len(counts) ^ i
    perm = _PERM
    seen = set()
    for _ in range(600):
        perm = tuple(_PERM[x] for x in perm)
        seen.add(perm)
    for i in range(300):
        row = [j * i for j in range(50)]
        picked = {j: row[j] for j in range(0, 50, 3)}
        acc += sum(picked.values()) + len(set(row))
    return acc + len(seen)


class Meter:
    """Kernel samples taken in time order, and the speed they show."""

    def __init__(self) -> None:
        self.times: list[float] = []  # midpoints
        self.durations: list[float] = []

    def sample(self) -> None:
        # The cyclic collector's pauses grow with the program's heap; the
        # kernel must time the host alone.
        gc.disable()
        try:
            start = time.perf_counter()
            kernel()
            end = time.perf_counter()
        finally:
            gc.enable()
        self.times.append((start + end) / 2)
        self.durations.append(end - start)

    def factor(self, start: float, end: float) -> float:
        """Reference seconds per measured second over [start, end], which
        must have a sample within WINDOW_S."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        return REF_S / statistics.fmean(self.durations[lo:hi])
