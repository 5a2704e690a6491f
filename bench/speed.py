"""Host-speed calibration: op latencies at a fixed reference speed.

The benchmark runs on a few cores of a shared host.  There, the speed of a
fixed pure-Python loop swings by 30-50 % from one minute to the next, and by
2x from one 40-ms stretch to the next, so raw wall times of the same code
differ more between runs than the bounds in BENCHMARK.json allow.

A *reference slice* is a fixed piece of exact rational arithmetic with
`fractions.Fraction` and a dict, the kind of work `probnext`'s LPs and
Prokhorov scans do.  When the host slows, it slows about as much as they
do.  Over 8-run sets of 10-s runs, log op throughput moved 0.90-1.06 times
as much as log slice speed on decide-mix and prokhorov.  A slice of
integer, str and dict work moved 1.08-1.29 times as much, and on prokhorov
left twice the run-to-run spread after scaling.

The slice is timed between ops, at least every `EVERY_S` of op time.  An
op's latency is reported at reference speed: its wall time times
`REFERENCE_S` over the mean of the `NEIGHBOURS` slices on each side of it.
One slice catches the host at an instant; the mean over a few tracks its
speed over the op's neighbourhood, which is what the op saw.  A change to
`probnext` moves the op's wall time but not the slices, so it moves the
reported latency by the same factor.

`REFERENCE_S` is about the slice's median time between decide-mix ops on
the 2-vCPU Xeon VM the baseline was measured on, so figures read roughly as
wall times on that machine at its typical speed.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 1.4e-3
EVERY_S = 0.02
NEIGHBOURS = 4


def reference_work() -> int:
    table = {}
    acc = Fraction(0)
    for i in range(150):
        acc += Fraction(i % 7 + 1, i % 5 + 2)
        table[(i % 31, acc.denominator % 13)] = acc
    return len(table)


def slice_s() -> float:
    """Wall time of one reference slice (two passes of the work).  The
    collector is off meanwhile, so a collection of the program's heap is
    charged to the next op, not to the slice."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        reference_work()
        reference_work()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Calibrated:
    """Collects raw op latencies and rescales each to reference speed by
    the slices around it.  Call `op(elapsed)` after every op and `close()`
    once at the end, which returns one scaled latency per op."""

    def __init__(self):
        self._raw: list[float] = []
        reference_work()  # the first pass in a fresh interpreter runs cold
        self.slices = [slice_s()]
        self._after: list[int] = []  # per op, the index of the slice before it
        self._since = 0.0

    def op(self, elapsed: float) -> None:
        self._raw.append(elapsed)
        self._after.append(len(self.slices) - 1)
        self._since += elapsed
        if self._since >= EVERY_S:
            self.slices.append(slice_s())
            self._since = 0.0

    def close(self) -> list[float]:
        if self._after and self._after[-1] == len(self.slices) - 1:
            self.slices.append(slice_s())
        scaled = []
        for elapsed, i in zip(self._raw, self._after):
            around = self.slices[max(0, i + 1 - NEIGHBOURS):i + 1 + NEIGHBOURS]
            scaled.append(elapsed * REFERENCE_S * len(around) / sum(around))
        return scaled
