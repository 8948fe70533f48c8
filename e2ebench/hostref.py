"""The frozen reference kernel that scales every time metric to one
nominal host speed.

The host this benchmark runs on changes speed by tens of percent over
seconds (other tenants, frequency scaling), so a raw wall-clock number
cannot repeat within a tenth.  Every op is therefore preceded by a
short, fixed pure-Python loop; the op's time is divided by the loop's
time and multiplied by :data:`NOMINAL_MS`.  A scaled time keeps its
unit and reads as "this op on a host where the kernel takes
NOMINAL_MS".

The kernel is frozen: changing :data:`ITERATIONS`, the loop body or
:data:`NOMINAL_MS` changes every scaled metric, so it is a benchmark
change of its own.  It uses no program code and allocates nothing:
every value it touches is a small int from the interpreter's cache, so
its time cannot depend on the program's heap.
"""

from __future__ import annotations

import os
import time
from itertools import repeat

ITERATIONS = 20000

#: Kernel time (ms) of the nominal host that scaled metrics refer to.
NOMINAL_MS = 1.0

#: Timed repetitions per measurement; the minimum is kept, which drops
#: repetitions that an interrupt or a context switch landed in.
REPEATS = 3


def _kernel() -> int:
    x = 0
    for _ in repeat(None, ITERATIONS):
        x = ((x ^ 0x5A) + 1) & 127
    return x


def ref_ms() -> float:
    """One host-speed reading: the fastest of :data:`REPEATS` kernel
    runs, in milliseconds."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best * 1000.0


def host_ref_ms() -> float:
    """:func:`ref_ms` on each CPU this process may run on, pinned to
    each in turn, averaged.  The serve workloads' work runs in other
    processes, on whichever CPU, and on a small shared VM each CPU's
    speed changes on its own."""
    cpus = os.sched_getaffinity(0)
    readings = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            readings.append(ref_ms())
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(readings) / len(readings)


def scale(ref: float) -> float:
    """Factor that turns a raw time measured next to a ``ref`` reading
    into a nominal-host time."""
    return NOMINAL_MS / ref
