"""Calibrated time: wall time scaled by the machine's speed of the moment.

On a shared host the speed of a core drifts by up to 2x within seconds
and between runs (neighbours, frequency), and the CPU time of the
process drifts with it, so raw times of the same code spread by 20 to
30% from run to run. The benchmark therefore times a fixed reference
kernel right before and right after every timed step, and scales the
step's wall time by REFERENCE_S over the mean of the two kernel times.
A calibrated second is a second at the speed at which the kernel takes
REFERENCE_S; only the program's own speed moves it. The kernel's own
time is never counted in a step.
"""

from __future__ import annotations

import time

# Median time of reference_kernel() on the machine the bounds were set
# on (2-core Intel Xeon VM, Python 3.11). Only ratios matter: comparing
# two commits with the same benchmark code cancels it.
REFERENCE_S = 0.035

def reference_tables() -> tuple:
    """The kernel's fixed inputs: a 20,000 x 81 table of cell images and
    81 cell values, as the group scans use."""
    import numpy  # here, so that the package's import pays for it

    rng = numpy.random.default_rng(0)
    return rng.integers(0, 81, (20_000, 81), numpy.uint8), rng.integers(0, 9, 81, numpy.uint8)


class _Item:
    __slots__ = ("cells", "label")

    def __init__(self, cells: bytes):
        self.cells = cells
        self.label = None


def reference_kernel(table, cells) -> int:
    """Fixed work of the kinds the package does, in three parts of about
    equal time: interpreter work (small-int arithmetic and bit masks,
    tuples, dict and list traffic); numpy gathers that filter the rows of
    the 1.6 MB table, as the group scans do; and many small objects made
    and read back, as boards are. Each part reacts to a different kind
    of contention on a shared core, and the mix tracks the package's
    steps better than any one part."""
    import numpy

    seen: dict[tuple, int] = {}
    rows: list[int] = []
    acc = 0
    for i in range(32_000):
        cell = (i * 7 + acc) % 81
        key = (cell // 9, cell % 9, i & 7)
        acc = (acc + seen.get(key, i) * 3) & 0xFFFF
        seen[key] = acc ^ (1 << (i % 9))
        if i & 3 == 0:
            rows.append(acc)
    for i in range(32):
        idx = numpy.arange(table.shape[0])
        idx = idx[cells[table[idx, i % 81]] > 3]
        idx = idx[cells[table[idx, (7 * i) % 81]] < 6]
        acc += int(idx.size)
    items = [_Item(bytes(((i + k) * 5) % 9 for k in range(27))) for i in range(3_200)]
    for j in range(0, 3_200, 7):
        acc += items[(j * 31) % 3_200].cells[j % 27]
    return acc + len(rows)


def reference_seconds(tables: tuple) -> float:
    t0 = time.perf_counter()
    reference_kernel(*tables)
    return time.perf_counter() - t0


class Clock:
    """Raw and calibrated seconds of a sequence of timed steps.

    start() opens a step; lap() closes it, samples the kernel, and opens
    the next one. A step is scaled by the mean kernel time on its two
    sides, so a step should be short next to a speed phase: one or a few
    calls into the package, not a whole pass.
    """

    def __init__(self) -> None:
        self.tables: tuple | None = None  # built at the first lap
        self.reference = 0.0  # the last kernel time
        self.raw = self.calibrated = 0.0
        self.references: list[float] = []
        self._mark = time.perf_counter()

    def start(self) -> None:
        self.raw = self.calibrated = 0.0
        self._mark = time.perf_counter()

    def lap(self) -> None:
        step = time.perf_counter() - self._mark
        first = self.tables is None
        if first:
            self.tables = reference_tables()
            reference_kernel(*self.tables)  # untimed warm-up
        reference = reference_seconds(self.tables)
        before = reference if first else self.reference  # the first step has one side
        self.raw += step
        self.calibrated += step * 2 * REFERENCE_S / (before + reference)
        self.references.append(reference)
        self.reference = reference
        self._mark = time.perf_counter()
