"""The host's speed, sampled with a fixed reference kernel.

The host this benchmark was written on runs pure Python at two speeds
about 1.7x apart, and switches between them every few seconds to every
few minutes. A run that falls into one or the other spell would report
figures that differ by far more than any bound a comparison can use.

`HostSpeed` runs a small, fixed pure-Python kernel between operations,
about every `EVERY_S` seconds, and records how long it took. Every time the
benchmark reports is scaled to a reference speed: a duration measured
from `start` to `end` is multiplied by `REFERENCE_KERNEL_S` divided by the
median kernel time sampled from `WINDOW_S` seconds before `start` to
`WINDOW_S` seconds after `end`. The kernel does not call fairchk, so a
change to fairchk leaves the kernel's time alone and moves the scaled
figures by the same factor as the raw ones. The kernel's slowdown tracks
fairchk's closely but not exactly (see NOTES.md), so the scaled figures
still move a little with the host. The raw wall-clock figures are printed
beside the scaled ones.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

# About the kernel's time in the fast spells of the host the benchmark was
# written on (Intel Xeon, 2 vCPUs, Python 3.11), so that scaled figures read
# close to raw ones there. It only fixes the scale of the figures.
REFERENCE_KERNEL_S = 0.0027
EVERY_S = 0.05
WINDOW_S = 0.5

_GRAPH = {i: ((i * 7 + 3) % 500, (i * 13 + 1) % 500) for i in range(500)}


def _walk(v: int, depth: int, seen: set, order: list) -> int:
    if v in seen or depth > 40:
        return 0
    seen.add(v)
    order.append((v, depth))
    a, b = _GRAPH[v]
    return 1 + _walk(a, depth + 1, seen, order) + _walk(b, depth + 1, seen, order)


def kernel() -> int:
    """Fixed interpreter work: calls, dict and set lookups, small tuples."""
    total = 0
    for start in range(0, 500, 15):
        order: list = []
        total += _walk(start, 0, set(), order)
        total += len(sorted(order))
    return total



class HostSpeed:
    def __init__(self) -> None:
        self.starts: list[float] = []
        self.kernel_s: list[float] = []
        self.spent = 0.0
        self.last = float("-inf")

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        if enabled:
            gc.enable()
        self.starts.append(start)
        self.kernel_s.append(end - start)
        self.spent += end - start
        self.last = end

    def tick(self) -> None:
        """Sample when `EVERY_S` seconds have gone by since the last sample."""
        if time.perf_counter() - self.last >= EVERY_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """The host's slowdown around [start, end]: the median kernel time
        near it over the reference time; above 1 is a slower host."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        near = self.kernel_s[lo:hi]
        if not near:  # no sample in the window: the nearest one
            i = min(bisect.bisect_left(self.starts, start), len(self.starts) - 1)
            near = self.kernel_s[max(i - 1, 0):i + 1]
        return statistics.median(near) / REFERENCE_KERNEL_S

    def scaled(self, start: float, end: float) -> float:
        """The duration from start to end at the reference speed."""
        return (end - start) / self.factor(start, end)
