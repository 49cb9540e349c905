"""A fixed calibration kernel that tracks the speed of the shared host.

The benchmark runs on a host shared with other processes.  Their load
changes the speed of pure-Python exact arithmetic by up to a factor of two,
for the program and for any other code alike: timing the same
``steinitz_rearrange`` call next to this kernel for two and a half minutes,
both slowed from 0.13 s to 0.21 s and from 1.7 ms to 2.8 ms, while the ratio
of their medians stayed within 71-74.  The speed also changes within a
second, so the benchmark times this kernel right before every operation and
scales that operation's time by ``REFERENCE_S / kernel time``; of the
scalings tried (by the kernel before the op, by a median over neighbouring
ops, by the median of a whole pass) the first repeated best.  Times are
thus reported as they would read on the host when the kernel takes
REFERENCE_S.  The kernel belongs to the benchmark, not to the program, so a
change to the program leaves it alone.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

# Median kernel time on the reference host (2-core Intel Xeon, Python 3.11.7)
# when it ran uncontended.
REFERENCE_S = 0.0016

_rng = random.Random(20220114)
_MATRIX = tuple(tuple(Fraction(_rng.randint(-9, 9), _rng.randint(1, 9)) for _ in range(9))
                for _ in range(8))


def _eliminate():
    """Gauss-Jordan elimination of a fixed 8x9 rational matrix."""
    rows = [list(r) for r in _MATRIX]
    for c in range(8):
        p = next(i for i in range(c, 8) if rows[i][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        for i in range(8):
            if i != c and rows[i][c] != 0:
                f = rows[i][c] / rows[c][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return rows


def kernel_seconds():
    """Wall time of one run of the kernel."""
    t0 = time.perf_counter()
    _eliminate()
    return time.perf_counter() - t0
