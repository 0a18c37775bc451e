#!/usr/bin/env python3
"""Time the hot kernels on both backends against the element-indexing
reference loops that ``tests/test_kernels.py`` holds as their oracles, in
one process.

Prints ns per row (recurrences) or per cell (power functional) of the LAPACK
backend, of the Python-float backend (the LAPACK handles set to None) and of
the reference loop, and the measured ratios reference / backend.  The power
functional is the same NumPy code on both backends, so it is timed once.
The ``bisection test`` rows time one definiteness test as the eigensolver
and the lambda-star bracket make it: one ``definite_test`` object per pencil,
built once per backend and reused, called at the shift s = 0.25 (one
``dpttrf`` call on the LAPACK backend; T - s*W is definite, so it walks every
row), at M = 512 (the benchmark's pencil size, where the per-call cost shows)
and M = 4096; its reference loop forms d - s*w and runs the loop that stops
at the first pivot that is not positive.  ``negcount`` is the Python-float recurrence on both
backends.  The ``inertia_count`` row counts the same shifted matrix as the
``negcount`` row through ``eigensolver.inertia_count`` (weight check, shift,
count), so the difference of the two rows is the per-call cost around the
count.
The power functional is timed at p = 2.6667 (the exponent of
``perfbench/kernel_bench.py``), 3 (the S^4 and S^5 cases of the minimizer
workload) and 4 (its flat ball), on M = 4096 cells and on a 256-cell table,
where the per-call overhead shows.
Inputs: M = 4096, numpy rng seed 7 (the same as ``perfbench/kernel_bench.py``).

The quadrature rows time one call, in microseconds, of ``bubble_moments``
(its moment tables) and of ``expansion.quotient_series`` (its stacked
family pass) against the per-moment and per-n quadratures that
``tests/test_quadrature.py`` holds as their oracles, on the cases of the
``cli-quadrature`` workload at seed 0: N = 5 at tol 1e-10 and N = 4 (its
truncated log-divergent pair) at sigma = 1, and S^5 at lambda = -1,
sigma = 1, n = 4, 8, 16, 32, 64.

Usage: python benchmarks/bench_kernels.py [--repeat N]
"""

import argparse
import contextlib
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from hardylab import _kernels  # noqa: E402
from hardylab.bubble import bubble_moments  # noqa: E402
from hardylab.eigensolver import inertia_count  # noqa: E402
from hardylab.expansion import quotient_series  # noqa: E402
from hardylab.manifold import unit_sphere  # noqa: E402
from test_kernels import (  # noqa: E402
    _definite_py,
    _ldl_factor_py,
    _ldl_solve_py,
    _negcount_py,
    _power_moment_grad_loop_py,
    _power_moment_loop_py,
    _tridiag_solve_py,
)
from test_quadrature import bubble_moments_ref, quotient_series_ref  # noqa: E402

M = 4096
SMALL = 256  # cells of the small power-functional table
PENCIL = 512  # rows of the small bisection-test pencil
SHIFT = 0.25  # bisection-test shift; T - SHIFT*W stays definite
_TESTS = {}  # one definiteness test per pencil size and backend


def bisection_test(d, e, w, shift):
    """One bisection step's test as the eigensolver makes it: the pencil's
    ``definite_test``, built on the first call on each backend, at a shift."""
    key = (d.shape[0], _kernels._PTTRF is None)
    if key not in _TESTS:
        _TESTS[key] = _kernels.definite_test(d, e, w)
    return _TESTS[key](shift)


def median_ns(fn, args, per, repeat):
    fn(*args)
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return 1e9 * statistics.median(times) / per


@contextlib.contextmanager
def python_backend():
    """Run the kernels on their Python-float recurrences."""
    saved = _kernels._PTTRF, _kernels._PTTRS
    _kernels._PTTRF = _kernels._PTTRS = None
    try:
        yield
    finally:
        _kernels._PTTRF, _kernels._PTTRS = saved


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=15)
    repeat = parser.parse_args().repeat

    rng = np.random.default_rng(7)
    d = np.abs(rng.standard_normal(M)) + 2.0
    e = 0.3 * rng.standard_normal(M - 1)
    w = np.abs(rng.standard_normal(M)) + 0.5
    b = rng.standard_normal(M)
    u = np.abs(rng.standard_normal(M + 1)) + 0.1
    wq = np.abs(rng.standard_normal((M, 16)))
    tq = np.linspace(0.02, 0.98, 16)
    factors = _kernels.ldl_factor(d, e)

    def grad_loop(u, wq, tq, p):
        return _power_moment_grad_loop_py(u, wq, tq, p, np.zeros(u.shape[0]))

    def shifted_loop(d, e, w, shift):
        return _negcount_py(d - shift * w, e)

    def shifted_definite_loop(d, e, w, shift):
        return _definite_py(d - shift * w, e)

    rows = [
        *(
            (f"bisection test {n}", "row", bisection_test, shifted_definite_loop, (d[:n], e[: n - 1], w[:n], SHIFT))
            for n in (PENCIL, M)
        ),
        ("negcount", "row", _kernels.negcount, _negcount_py, (d - 0.5 * w, e)),
        ("inertia_count", "row", inertia_count, shifted_loop, (d, e, w, 0.5)),
        ("ldl_factor", "row", _kernels.ldl_factor, _ldl_factor_py, (d, e)),
        ("ldl_solve", "row", _kernels.ldl_solve, _ldl_solve_py, (*factors, b)),
        ("tridiag_solve", "row", _kernels.tridiag_solve, _tridiag_solve_py, (d, e, b)),
    ]
    for cells in (M, SMALL):
        for p in (2.6667, 3.0, 4.0):
            args = (u[: cells + 1], wq[:cells], tq, p)
            rows += [
                (f"power_moment {cells} p={p:g}", "cell", _kernels.power_moment, _power_moment_loop_py, args),
                (f"power_moment_grad {cells} p={p:g}", "cell", _kernels.power_moment_grad, grad_loop, args),
            ]
    lapack = _kernels.BACKEND == "lapack"
    header = (
        f"{'kernel':30s} {'unit':>8s} {'lapack':>8s} {'python':>8s} {'reference':>10s}"
        f" {'ref/lapack':>11s} {'ref/python':>11s}"
    )
    print(f"backend resolved at import: {_kernels.BACKEND}")
    print(header)
    print("-" * len(header))
    for name, unit, fast, ref, args in rows:
        # the reference power loops are ~100x slower; time them less often
        ref_repeat = repeat if unit == "row" else max(1, repeat // 5)
        per = args[0].shape[0] if unit == "row" else args[1].shape[0]  # rows, or cells of the table
        t_lapack = median_ns(fast, args, per, repeat) if lapack and unit == "row" else None
        with python_backend():
            t_python = median_ns(fast, args, per, repeat)
        t_ref = median_ns(ref, args, per, ref_repeat)
        lapack_ns, lapack_ratio = ("-", "-") if t_lapack is None else (f"{t_lapack:.0f}", f"{t_ref / t_lapack:.1f}x")
        print(
            f"{name:30s} {'ns/' + unit:>8s} {lapack_ns:>8s} {t_python:8.0f} {t_ref:10.0f}"
            f" {lapack_ratio:>11s} {t_ref / t_python:10.1f}x"
        )

    s5 = unit_sphere(5)
    quadrature = [
        ("bubble_moments N=5 tol=1e-10", bubble_moments, bubble_moments_ref, (5, 1.0, 1e-10)),
        ("bubble_moments N=4", bubble_moments, bubble_moments_ref, (4, 1.0)),
        ("quotient_series S5", quotient_series, quotient_series_ref, (s5, -1.0, 1.0, (4, 8, 16, 32, 64))),
    ]
    header = f"{'quadrature':30s} {'unit':>8s} {'new':>8s} {'reference':>10s} {'ref/new':>11s}"
    print()
    print(header)
    print("-" * len(header))
    for name, fast, ref, args in quadrature:
        t_new = median_ns(fast, args, 1000, repeat)
        t_ref = median_ns(ref, args, 1000, repeat)
        print(f"{name:30s} {'us/call':>8s} {t_new:8.0f} {t_ref:10.0f} {t_ref / t_new:10.2f}x")


if __name__ == "__main__":
    main()
