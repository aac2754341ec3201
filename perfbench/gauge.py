"""A gauge of how fast this machine runs Python right now.

The machine's speed drifts by up to a quarter over minutes.  Timing a fixed
pure-Python loop that runs no program code, next to the commands, lets the
benchmark report command times in units of that loop ("ref"), which follow
the drift far less than seconds do.
"""

from __future__ import annotations

import time

ITERATIONS = 40_000


def reference_loop() -> float:
    """Seconds for the fixed loop."""
    t0 = time.perf_counter()
    s = 0
    for i in range(ITERATIONS):
        s += i * i % 7
    return time.perf_counter() - t0
