"""The reference loop that every end-to-end timing is scaled by.

On a 2-vCPU VM shared with other tenants, the speed of the same pure-Python
code moved by 10-50% in phases lasting minutes, process CPU time included.
A run therefore measures, next to every operation, the wall and CPU time of
this fixed loop, which does not touch the package: exact `Fraction` row eliminations on a small dense matrix (the
shape of the simplex tableau work) and dict, sort and int work (the shape of
the bookkeeping).  A timing t taken while the loop took r seconds (wall
time for a wall timing, CPU time for a CPU timing) is reported as
t * NOMINAL_S / r: the time the operation would take on a machine where
the loop takes NOMINAL_S.  On identical repeated work this cut
the block-to-block coefficient of variation from 16-21% to 2-6%.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter, process_time

# CPU seconds of one reference() call on the machine the benchmark was
# calibrated on (Intel Xeon, 2 vCPUs, Python 3.11.7), a typical value
NOMINAL_S = 0.006

_MATRIX = tuple(
    tuple(Fraction((i * 7 + j * 3) % 11 - 5, (i + j) % 5 + 1) for j in range(18))
    for i in range(12)
)


def _eliminate() -> None:
    rows = [list(row) for row in _MATRIX]
    for p in range(4):
        pivot = rows[p][p] or Fraction(1)
        for i, row in enumerate(rows):
            if i != p and row[p]:
                factor = row[p] / pivot
                rows[i] = [a - factor * b for a, b in zip(row, rows[p])]


def _bookkeep() -> None:
    total = Fraction(0)
    counts: dict[int, int] = {}
    for i in range(1, 250):
        total += Fraction(i % 7 + 1, i % 97 + 1)
        counts[i % 53] = counts.get(i % 53, 0) + i
        sorted(counts.values())


def reference() -> None:
    _eliminate()
    _bookkeep()


def reference_s() -> tuple[float, float]:
    """Wall and CPU seconds of one reference() call, after an untimed
    collection."""
    gc.collect()
    wall, cpu = perf_counter(), process_time()
    reference()
    return perf_counter() - wall, process_time() - cpu
