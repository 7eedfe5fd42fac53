"""The benchmark's yardstick for the machine's speed.

The machine the benchmark runs on shares its host, and its speed drifts by
a third and more within a minute; a slow spell can cover a whole run.  So
the worker times a fixed reference computation right before and right
after every op, and reports the op's time in reference seconds:

    op time * UNIT_S / (mean time of one reference unit near the op)

that is, the time the op would take on a machine that runs the reference
unit in UNIT_S seconds.  A slow spell lengthens the op and the reference
alike, so it cancels; a change to misact moves the op alone.  "Near" is
within WINDOW_S seconds of the op: single timings of a tenth of a second
jitter by a tenth on that machine, the slow spells last seconds, and the
window averages the one away while following the other.

The reference unit is the benchmark's own work, not misact's: all maximal
independent sets of a fixed 16-vertex graph and their activities, by
check.py's enumerator.  Like misact it is pure Python over integer
bitmasks, small lists and recursion.  Garbage collection is off while it
runs, so whatever heap the ops leave behind does not change its time.
"""

from __future__ import annotations

import gc
import random
from bisect import bisect_left, bisect_right
from time import perf_counter

import check
import gen

# The unit's mean time over many chunks on the machine named in
# baseline.json, in a quiet hour: there reference seconds are close to
# seconds.
UNIT_S = 3.7e-4
WINDOW_S = 4.0

_ADJ = gen.gnp(16, 0.3, random.Random("reference"))


def _unit() -> None:
    for m in check.mis_masks(_ADJ):
        check.activities(_ADJ, m)


def time_units(count: int) -> float:
    """Wall time of `count` reference units in a row."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        for _ in range(count):
            _unit()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Yardstick:
    """Reference timings taken through a run, in the order they were taken."""

    def __init__(self) -> None:
        self.at: list[float] = []  # midpoint of each timing
        self.seconds: list[float] = []
        self.units: list[int] = []

    def measure(self, units: int) -> None:
        t0 = perf_counter()
        took = time_units(units)
        self.at.append(t0 + took / 2)
        self.seconds.append(took)
        self.units.append(units)

    def ref_seconds(self, start: float, took: float) -> float:
        """An op's time in reference seconds, from the timings within
        WINDOW_S of it (which include the two taken around it)."""
        lo = bisect_left(self.at, start - WINDOW_S)
        hi = bisect_right(self.at, start + took + WINDOW_S)
        return took * UNIT_S * sum(self.units[lo:hi]) / sum(self.seconds[lo:hi])
