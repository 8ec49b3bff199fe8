"""Reference-speed calibration for the end-to-end time metrics.

The boxes this runs on change CPU speed under the benchmark: a fixed
pure-Python loop takes 7.2 ms for some seconds, then 9.4 ms for some
seconds, with no load of our own.  Raw wall-clock metrics therefore
spread 7-11 % from run to run — as wide as the regression bounds they
are gated on.  What does hold steady (within about 2 %) is the *ratio*
between an engine operation and a fixed kernel measured beside it.

So the drivers interleave :func:`kernel` with the ops (about 8 % of the
time), cut the run into blocks of a quarter of a second (speed moves
faster than once a second: on a recorded run one-second windows left
2.5 % of spread between identical super-rounds, windows of a tenth to
a quarter 1.8 %, raw time 11.8 %), and divide each op's latency by its
block's :func:`speed_factor`: the median kernel time of the block over
:data:`KERNEL_REF_NS`.  Every end-to-end time is thus
stated "at reference speed"; the raw values and the factor are kept in
the record beside them.  The kernel is timed in thread CPU time, so
waiting for the GIL or a core does not count as slowness, and it
allocates nothing the cyclic GC tracks, so it never pays for a
collection of the workload's heap.
"""

from __future__ import annotations

import statistics
import time

#: Kernel time that defines speed 1.0.  A constant of the benchmark:
#: changing it (or the kernel) rescales every recorded time.
KERNEL_REF_NS = 2_000_000

#: Share of a block's op time spent calibrating.
SHARE = 0.08
BLOCK_S = 0.25


def kernel() -> int:
    """Fixed interpreter work: dict stores and probes, integer
    arithmetic, calls, short-string allocation."""
    table: dict[int, int] = {}
    get = table.get
    out: list[str] = []
    acc = 0
    for i in range(12000):
        acc = (acc * 31 + i) & 0xFFFF
        table[i & 255] = acc
        if get(i & 127, 0) <= acc:
            out.append(str(acc))
    return len("".join(out)) + acc


def kernel_ns() -> int:
    started = time.thread_time_ns()
    kernel()
    return time.thread_time_ns() - started


def speed_factor(samples_ns: list[int]) -> float:
    """How much slower than reference speed the samples ran."""
    return statistics.median(samples_ns) / KERNEL_REF_NS
