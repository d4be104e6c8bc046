"""The reference loop that ftik's timings are divided by.

On a shared host the speed of the CPU a process gets swings by up to 1.8x
for minutes at a time, while CPU time stays equal to wall time: the slowdown
is inside each instruction, not a wait.  A fixed stdlib-only loop slows by
about the same factor, so an item's time divided by the loop's time measured
right beside it is the item's cost in units of the loop ("ref"), which
stays put while the seconds move.

Code of different kinds slows by different factors.  Between the fastest
and slowest quarter of a five-minute log, in which the host's speed moved
by 1.8x, ftik's Conway tree, bracket and sublink sums divided by a loop of
``Fraction`` arithmetic alone moved by -10%, -3% and -4%; divided by a loop
of tuple and dict work alone by 0%, +8% and +6%.  The loop below does both,
in about equal time, and moved them by -5%, +4% and +2%.
"""

import time
from fractions import Fraction

_TUPLES = [(i % 13, i % 7, i % 11, i % 5) for i in range(2000)]


def reference_s() -> float:
    """Wall seconds of one pass of a fixed loop: rational arithmetic, then
    tuple keys, dict counts and sorting, like ftik's inner loops.  About
    12-15 ms on an idle core."""
    start = time.perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, 3000):
        acc += Fraction(1, i % 97 + 1)
        table[i % 1013] = acc.numerator % 7
    counts, rows = {}, _TUPLES
    for _ in range(8):
        for a, b, c, d in rows:
            key = (b, c, d, a)
            counts[key] = counts.get(key, 0) + 1
        rows = sorted(rows, key=lambda t: (t[2], t[0]))
    return time.perf_counter() - start


def in_ref(seconds: float, ref_before: float, ref_after: float) -> float:
    """``seconds`` spent between two reference passes, in reference units."""
    return seconds / ((ref_before + ref_after) / 2)
