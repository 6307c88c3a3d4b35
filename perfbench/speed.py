"""Scaling measured times to a fixed machine speed.

On a shared VM, other tenants' load slows the same work by a third or more
for tens of seconds at a time.  A fixed pure-Python kernel, timed between
queries, follows that speed; each query's time is multiplied by
``REFERENCE_S`` over the kernel's recent time.  The kernel is benchmark
code, so a change to the package under test does not change it.
"""

from __future__ import annotations

import collections
import gc
import statistics
import time

# The kernel's time at the speed all reported times are scaled to (about its
# time between queries on a 2-core x86-64 VM with Python 3.11).
REFERENCE_S = 1.3e-4


def reference_kernel() -> int:
    """Fixed interpreter-bound work shaped like the package's automaton
    constructions: a breadth-first search over (int, frozenset) states with
    set and dict churn."""
    seen = set()
    index: dict = {}
    frontier = [(0, frozenset())]
    for _ in range(7):
        nxt = []
        for q, marks in frontier:
            for a in range(4):
                state = ((q * 3 + a) % 11, marks | {a % 3})
                if state not in seen:
                    seen.add(state)
                    nxt.append(state)
                    index.setdefault(state[0], []).append(state)
        frontier = nxt
    return len(seen)


class SpeedGauge:
    """Kernel timings; ``scale`` uses the median of the latest ``window``
    samples, taken just before and after the time it converts."""

    def __init__(self, window: int = 5):
        self.recent: collections.deque = collections.deque(maxlen=window)
        self.samples: list[float] = []

    def sample(self):
        """Time the kernel twice and keep the faster run.  The collector is
        off meanwhile, so that collecting the package's garbage is not
        charged to the kernel."""
        gc.disable()
        try:
            elapsed = []
            for _ in range(2):
                start = time.perf_counter()
                reference_kernel()
                elapsed.append(time.perf_counter() - start)
        finally:
            gc.enable()
        self.recent.append(min(elapsed))
        self.samples.append(min(elapsed))

    def scale(self, seconds: float) -> float:
        return seconds * REFERENCE_S / statistics.median(self.recent)

    def factor(self) -> float:
        """Reported time ÷ measured time over every sample so far."""
        return REFERENCE_S / statistics.median(self.samples)
