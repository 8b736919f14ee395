"""Scaling op timings to a reference machine speed.

The shared VM the benchmark was built on runs the same single-threaded code
up to 1.7x slower for minutes at a time, and ~25% slower for seconds. A
fixed pure-Python loop that never touches biosketch slows down with it.
The measuring worker runs the loop between ops, at most every EVERY_S, and
reports each op at reference speed: its time multiplied by REF_S over the
mean of the loop times just before and just after it. On matcher-m8 this
cut the spread of the median op time over eight runs from 0.22 to 0.03.
"""

from __future__ import annotations

import statistics
import time

REF_S = 0.004  # loop time that reference-speed timings are scaled to
EVERY_S = 0.2  # between ops, run the loop at most this often


def loop_seconds() -> float:
    """Seconds for one run of the fixed loop."""
    t0 = time.perf_counter()
    acc = 0
    table = {}
    for i in range(20000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[i & 255] = acc
    return time.perf_counter() - t0


def probe() -> float:
    """Median of three loop runs."""
    return statistics.median(loop_seconds() for _ in range(3))


def at_reference(seconds: float, loop_before: float, loop_after: float) -> float:
    return seconds * REF_S * 2 / (loop_before + loop_after)
