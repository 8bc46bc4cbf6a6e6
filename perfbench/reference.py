"""A fixed pure-Python reference kernel that gauges how fast the host runs
Python at the moment it is timed.

On a shared host, other tenants make this process up to twice as slow for
stretches of ten seconds or more, as long as a whole run of the
benchmark. The kernel does the same kind of work as the
simulator (a heap of small slotted objects, dict counters, string
formatting and a join) and never calls envelopesim, so a change to the
program cannot move it. The benchmark times the kernel between the items
of every pass and reports host time at the reference speed:

    reported = measured * REFERENCE_S / (the kernel's time, measured then)

A program that gets faster reads faster by the same share; a host that
gets slower for a while does not.
"""

import heapq
import random
import statistics
import time
from typing import List

# Roughly the kernel's time on the 2-vCPU x86-64 host, Python 3.11.7, that
# the baseline in README.md was measured on, in its fast stretches. A fixed
# constant, so that reported times compare between runs and commits.
REFERENCE_S = 0.001


class _Event:
    __slots__ = ("at", "line", "kind")

    def __init__(self, at, line, kind):
        self.at = at
        self.line = line
        self.kind = kind


def kernel(events: int = 400) -> int:
    """A small event loop: push events, pop them in time order, re-arm
    every third one per line, format each as a CSV row."""
    rng = random.Random(5)
    heap = []
    counts = {}
    rows = []
    for i in range(events):
        heapq.heappush(heap, (rng.randrange(1000), i,
                              _Event(i, f"l{i % 7}", "RAISE")))
    while heap:
        at, i, event = heapq.heappop(heap)
        count = counts.get(event.line, 0) + 1
        counts[event.line] = count
        if count % 3 == 0 and at < 900:
            heapq.heappush(heap, (at + 50, i,
                                  _Event(at + 50, event.line, "TIMER")))
        rows.append(f"{at},{event.line},{event.kind}")
    return len("\n".join(rows))


def time_kernel() -> float:
    """Host seconds of one kernel call."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def scale(samples: List[float]) -> float:
    """The factor that takes host seconds measured beside these kernel
    timings to seconds at the reference speed."""
    return REFERENCE_S / statistics.median(samples)
