"""A fixed piece of work, timed to tell how fast the shared machine runs now.

The machine the benchmark was tuned on is shared.  Its neighbours slow
whole stretches of a run down, from seconds to minutes, by up to 2x, and
never speed it up: over two hours of runs on a 2-core virtual machine
this probe's time ranged from 27 ms to 57 ms while the program and its
inputs stayed the same, and the workloads' throughput halved with it.
So each timing is scaled by ``REFERENCE_S / probe time`` measured next
to it, which reports it as it would read on a machine where the probe
takes ``REFERENCE_S``.  The probe mixes the kinds of work the workloads
do (interpreted Python, NumPy on small arrays, NumPy streaming an array
larger than a core's L2 cache) so that it slows down with them.  Raw
timings are kept in each run's record.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.040
SMALL = np.arange(3600.0).reshape(60, 60) / 3600.0
LARGE = np.linspace(0.0, 1.0, 2_000_000)  # 16 MB, four times a core's L2


def probe() -> float:
    """Seconds taken by the fixed mix of work."""
    start = time.perf_counter()
    total = 0.0
    for i in range(4000):
        column = SMALL[:, i % 60].copy()
        total += float(column @ column)
    for i in range(150_000):
        total += i
    total += float(np.cos(LARGE).sum())
    return time.perf_counter() - start
