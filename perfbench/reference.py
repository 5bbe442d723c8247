"""Machine-speed reference that the end-to-end timings are scaled by.

On a shared machine the speed one process gets drifts by tens of percent
over minutes, for reasons outside the process.  A fixed kernel that does
not use triband is timed between passes.  It does the same kinds of work
as a period map: a Taylor loop on a stack of complex long-double 3x3
matrices, a Python-level chain of small products, and one LAPACK 2-norm.
Timings are then reported as if the kernel took REFERENCE_MS.  On a
2-core KVM guest, the median period map at N = 64 took between 1.14 and
1.63 ms in the 30-second windows of a ten-minute run, while its ratio to
the kernel's time stayed within 3%.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_MS = 1.0
_rng = np.random.default_rng(0)
_STACK = ((_rng.normal(size=(64, 3, 3)) + 1j * _rng.normal(size=(64, 3, 3))) * 0.05).astype(
    np.clongdouble)
_SMALL = np.eye(3, dtype=complex) + 0.1


def _kernel() -> float:
    total = np.broadcast_to(np.eye(3, dtype=_STACK.dtype), _STACK.shape).copy()
    term = total.copy()
    for m in range(1, 13):
        term = (term @ _STACK) / m
        total += term
        if np.abs(term).max() < 1e-30:
            break
    for _ in range(4):
        total = total @ total
    product = total[0]
    for i in range(1, total.shape[0]):
        product = total[i] @ product
    return float(np.linalg.norm(_SMALL, 2)) + float(abs(product[0, 0]))


def reference_ms(seconds: float) -> float:
    """Median time of one kernel call, in milliseconds, over `seconds`."""
    times = []
    end = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        times.append((t1 - t0) * 1e3)
        if t1 > end:
            return statistics.median(times)
