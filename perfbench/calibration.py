"""Host-speed calibration for the end-to-end times.

The benchmark's host runs pure Python at speeds that change by up to a
quarter, for seconds to minutes at a time, whatever process runs.  A fixed
kernel timed in the same process, between ops, sees the same changes: the
ratio of a workload's time to the kernel's time over the same seconds is
several times steadier than either time alone.  So each worker times the
kernel at regular intervals, and run.py reports every end-to-end time
scaled by REFERENCE_S / (mean kernel time of that worker), i.e. in seconds
of a host that runs the kernel in REFERENCE_S.  The kernel uses no mzeta
code, so a change to mzeta cannot move it.
"""
from __future__ import annotations

import gc
from time import perf_counter

# About the mean kernel time on the machine the bounds were set on (2-vCPU
# virtual machine at 2.1 GHz, Python 3.11.7).  A constant, so scaled times
# stay in seconds; changing it rescales every end-to-end time.
REFERENCE_S = 0.010

# Time between kernel samples within a pass, and samples after a set-up probe.
EVERY_S = 0.2
SETUP_SAMPLES = 5


def _kernel() -> int:
    """Fixed pure-Python work like mzeta's: tuples, comparisons, dict counts
    and big-integer products."""
    counts: dict[tuple[int, int], int] = {}
    acc = 0
    for i in range(6000):
        w = (i % 7, i % 5, i % 3, i % 11)
        des = sum(1 for a, b in zip(w, w[1:]) if a > b)
        key = (des, w[0])
        counts[key] = counts.get(key, 0) + 1
    coeffs = [3**k for k in range(40)]
    for _ in range(6):
        out = [0] * (2 * len(coeffs) - 1)
        for i, a in enumerate(coeffs):
            for j, b in enumerate(coeffs):
                out[i + j] += a * b
        acc += out[len(coeffs)] % 1009
    return acc + len(counts)


def sample() -> float:
    """Seconds one run of the kernel takes now.  The garbage collector is
    off meanwhile, so that no collection of mzeta's objects, whose cost
    depends on mzeta, lands in the sample."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _kernel()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
