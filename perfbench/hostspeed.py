"""Host-speed normalization of the in-process timings.

The benchmark runs on shared machines whose speed drifts by a third and
more over minutes as neighbours come and go; CPU time drifts with wall
time, so it is contention, not descheduling.  A run therefore times a
fixed reference kernel -- interpreter work plus small matrix products,
the two kinds of work the program does, and no code of the program --
next to the work it measures, and scales that work's wall time by
``KERNEL_REF_S / median kernel time``: the time the work would take on a
host that runs the kernel in ``KERNEL_REF_S``.  A change to the program
moves the scaled figure as it moves the wall time; a change in the
host's speed moves the work and the kernel alike and cancels.  On a
shared 2-vCPU host, eight seeds of pipeline_mc and six of exact_regimen
gave a spread of the pass-mean item time (IQR / median) of 0.15 and
0.26 raw, 0.04 and 0.09 scaled.  Raw wall times are kept in a run's
details.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: The kernel's typical time on the host the first results were recorded
#: on (``env`` in ``perfbench/history/1e81df6.json``); it only sets the
#: scale of the normalized figures.
KERNEL_REF_S = 0.9e-3

_MATRIX = np.random.default_rng(0).random((64, 64))


def kernel_seconds() -> float:
    """Wall time of one run of the reference kernel."""
    t0 = time.perf_counter()
    acc: dict[int, float] = {}
    for i in range(4000):
        acc[i % 97] = acc.get(i % 97, 0.0) + i * 0.5
    for _ in range(20):
        (_MATRIX @ _MATRIX).sum()
    return time.perf_counter() - t0


def slowdown(samples: list[float]) -> float:
    """How much slower than the reference host these kernel samples ran."""
    return statistics.median(samples) / KERNEL_REF_S
