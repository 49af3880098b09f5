"""Machine speed, timed with fixed reference kernels.

On a shared machine the same op runs at speeds up to 1.8x apart, changing
every few seconds as the neighbours come and go: the process keeps its core
(no steal time; CPU time equals wall time) but shares it.  How much of a run
falls into each stretch moved raw op times, their median and their
percentiles alike, by 20 to 40% between runs of the same code.

The benchmark therefore times a reference kernel right before and right
after every timed interval, and divides the interval by the mean of the two.
Slow stretches slow both down alike, so the quotient holds steady.  Times
are reported in seconds at the reference speed: the quotient times the
kernel's nominal time.  The kernels belong to the benchmark and never change
with the program, so a change of the program moves the quotient as it moves
the program's own time.

The stretches do not slow all code alike: scalar interpreted code slows by
up to 1.6x and array code over megabytes by about 1.2x, and code that
handles text follows neither exactly.  So there are three kernels, and each workload is divided by the
one that works like it.  Over ten 25 s runs per workload the spread
(interquartile range over median) of the median op time was, raw and then
divided by the kernel: 0.10 and 0.06 for ``mc_threshold_30db`` (arrays),
0.09 and 0.02 for ``mc_trace_0km`` (text), 0.11 and 0.04 for
``sweep_finite_1e10`` (scalar), 0.36 and 0.01 for ``analyze_cli`` (text).
Divided by the scalar kernel, ``analyze_cli`` still spread 0.11: runs
in which the machine was quiet read 17% faster than the rest.
"""

from __future__ import annotations

import csv
import io
import math
import statistics
import time
from collections import Counter

import numpy as np

_RNG = np.random.default_rng(12345)


def scalar():
    """Scalar float math, calls and dict updates, as in the rate optimizer
    and the finite-key chain."""
    acc = 0.0
    table = {}
    for i in range(30_000):
        x = math.exp(-i * 1e-4) * math.cos(i)
        acc += x
        table[i & 255] = x
    return acc + len(table)


def text():
    """Some scalar math, then CSV text written, parsed back and tallied, as
    in the trace writer, the count-table parser and the CLI."""
    acc = 0.0
    table = {}
    for i in range(10_000):
        x = math.exp(-i * 1e-4) * math.cos(i)
        acc += x
        table[i & 255] = x
    buf = io.StringIO()
    writer = csv.writer(buf)
    for i in range(2_000):
        writer.writerow((i, f"{i * 1.37e-3:.6g}", "X" if i % 3 else "YBC", i % 7))
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    tags = Counter(r[2] for r in rows)
    report = "\n".join(f"{k:>8s} = {v:12d}" for k, v in sorted(tags.items()))
    return acc + sum(float(r[1]) for r in rows) + len(table) + len(report)


_U = np.empty(1_000_000)
_W = np.empty_like(_U)
_MASK = np.empty(_U.shape, dtype=bool)


def arrays():
    """Element-wise math over arrays of 1e6 entries, as in a Monte Carlo
    block.  The arrays are allocated once, so the kernel's time does not
    depend on the heap the program leaves behind."""
    _RNG.random(out=_U)
    np.greater_equal(_U, 0.5, out=_MASK)
    np.multiply(_U, 2.0, out=_W)
    np.copyto(_W, _U, where=_MASK)
    np.negative(_W, out=_W)
    np.exp(_W, out=_W)
    np.greater(_W, 0.5, out=_MASK)
    return int(np.count_nonzero(_MASK))


# about each kernel's time on a 2-vCPU "Intel(R) Xeon(R) Processor" VM
# (Python 3.11, numpy 2.4), between its fast and slow stretches: fixed
# scales, never re-measured
NOMINAL_S = {scalar: 0.011, text: 0.011, arrays: 0.024}


def reference_s(kernel, reps=1):
    """Median seconds of ``reps`` back-to-back passes of ``kernel``."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def at_reference_speed(kernel, seconds, before, after):
    """``seconds`` timed between two reference timings of ``kernel``,
    scaled to the kernel's nominal speed."""
    return seconds / (0.5 * (before + after)) * NOMINAL_S[kernel]
