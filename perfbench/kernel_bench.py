"""Time per row (recurrences) or per cell (power functional) of the four
hot kernels, on the backend that is actually loaded.

Inputs are those of ``benchmarks/bench_kernels.py``: M = 4096, numpy rng
seed 7.  Only one backend is ever timed here, so no ratio between backends
is reported.
"""

from __future__ import annotations

import statistics
import time

M = 4096
REPEATS = 15


def _inputs():
    import numpy as np

    rng = np.random.default_rng(7)
    d = np.abs(rng.standard_normal(M)) + 2.0
    e = 0.3 * rng.standard_normal(M - 1)
    w = np.abs(rng.standard_normal(M)) + 0.5
    b = rng.standard_normal(M)
    u = np.abs(rng.standard_normal(M + 1)) + 0.1
    wq = np.abs(rng.standard_normal((M, 16)))
    tq = np.linspace(0.02, 0.98, 16)
    return d, e, w, b, u, wq, tq


def _median_call(fn, *args):
    fn(*args)  # warm-up (compiles when numba is loaded)
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run(kernels) -> dict:
    """``{metric name: (value, unit)}`` for the given ``_kernels`` module."""
    d, e, w, b, u, wq, tq = _inputs()
    ns = 1e9 / M
    return {
        "kernel_bench.negcount.ns_per_row": (ns * _median_call(kernels.negcount, d - 0.5 * w, e), "ns/row"),
        "kernel_bench.tridiag_solve.ns_per_row": (ns * _median_call(kernels.tridiag_solve, d, e, b), "ns/row"),
        "kernel_bench.power_moment.ns_per_cell": (ns * _median_call(kernels.power_moment, u, wq, tq, 2.6667), "ns/cell"),
        "kernel_bench.power_moment_grad.ns_per_cell": (
            ns * _median_call(kernels.power_moment_grad, u, wq, tq, 2.6667),
            "ns/cell",
        ),
        "kernel_bench.numba": (int(bool(kernels.HAVE_NUMBA)), "flag"),
    }
