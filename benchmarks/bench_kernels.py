#!/usr/bin/env python3
"""Time the hot kernels on both backends against the element-indexing
reference loops that ``tests/test_kernels.py`` holds as their oracles, in
one process.

Prints ns per row (recurrences and the KKT solve) or per cell (power
functional) of the LAPACK backend, of the Python-float backend (the
LAPACK handles set to None) and of the reference loop, each as the minimum
and the median over ``--repeat`` timed calls ("min/median"), and the
ratios reference / backend of the medians.  A row whose median lies far
above its minimum had slow calls, which a kernel that is slow on every
call does not show.  The power
functional is the same NumPy code on both backends, so it is timed once.
The ``bisection test``, ``factor`` and ``bound solve`` rows use the
pencil's workspace as the eigensolver and the lambda-star bracket do: one
``PencilWorkspace`` per pencil, built once per backend and reused.  A
``bisection test`` row calls it at the shift s = 0.25 (one in-place shift
and one ``dpttrf`` call on the LAPACK backend; T - s*W is definite, so it
walks every row); a ``factor`` row takes ``factor(s)`` at the same shift
(the test's shift and ``dpttrf`` call, and the copy into the factor); a
``bound solve`` row solves against one factor taken from the workspace, as
inverse iteration and the minimizer do (one copy into the factor's buffer
and one ``dpttrs`` call on the LAPACK backend).  Each runs at M = 512 (the
benchmark's pencil size, where the per-call cost shows) and M = 4096; the
bound solve also at 256 rows.  Their reference loops form d - s*w: the
test's stops at the first pivot that is not positive, the factor's runs
every row, and the solve's solves against the reference factor.
``negcount`` is the Python-float recurrence on both backends.  The
``inertia_count`` row counts the same shifted matrix as the ``negcount`` row
through ``eigensolver.inertia_count`` (weight check, shift, count), so the
difference of the two rows is the per-call cost around the count.
The power functional is timed at p = 2.6667 (the exponent of
``perfbench/kernel_bench.py``), 3 (the S^4 and S^5 cases of the minimizer
workload) and 4 (its flat ball), on M = 4096 cells and on a 256-cell table,
where the per-call overhead shows, each table as wide as the one
``forms.assemble_forms`` builds (``forms._GAUSS_ORDER`` points per cell, at
its Legendre points).  ``power_moment_grad`` is timed on a
non-negative profile (rows ``power_moment_grad+``: its sign-free path, which
the minimizer's starts and mixed candidates take) and on a signed one (rows
``power_moment_grad+-``: the general path).  The ``workspace value+`` and
``workspace gradient`` rows time the two halves of that kernel as the
minimizer calls them, on one ``PowerWorkspace`` per table and exponent,
built once and reused: ``value`` on the non-negative profile (F and g, with
the sign scan), and ``gradient`` of that profile's g.  Their reference
loops are those of ``power_moment`` and of ``power_moment_grad``, which
compute more (F alone, and F with its gradient).
The ``KKT solve`` rows time the minimizer's Newton solve: a symmetric
indefinite tridiagonal system with two right-hand sides on 64 and 256 rows,
through one ``TridiagonalSystem`` per size and backend (B and the two
columns copied into its buffer and one bound ``dgtsv`` call, or its
Python-float stand-in), against the reference ``dgtsv`` loop.
Inputs: M = 4096, numpy rng seed 7 (the seed of ``perfbench/kernel_bench.py``).

The quadrature rows time one call, in microseconds, of ``bubble_moments``
(its shared tanh-sinh rule; its oracle is 30-digit mpmath, which is not
timed) and of ``expansion.quotient_series`` (its stacked family pass)
against the per-n quadrature that ``tests/test_quadrature.py`` holds as its
oracle, on the cases of the ``cli-quadrature`` workload at seed 0: N = 5
at tol 1e-10 and N = 4 (its truncated log-divergent pair) at sigma = 1,
and S^5 at lambda = -1, sigma = 1, n = 4, 8, 16, 32, 64.

The assembly rows time, in ns per cell, one ``forms.assemble_forms`` at
sigma = 2 on S^3 (M = 512, the benchmark's pencil size, and M = 4096) and
at sigma = 1 on S^4 (M = 256, with its |u|^p table), and one
``forms.assemble_lumped_weight`` of ``hardy_refined``'s log weight
r^-2 (log r)^-2 on the flat ball N = 3 (r0 = 0.1, gamma = 3, M = 1024).

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
from hardylab.forms import _GAUSS_ORDER, _cell_points, assemble_forms, assemble_lumped_weight, build_grid  # noqa: E402
from hardylab.manifold import euclidean_ball, unit_sphere  # noqa: E402
from test_kernels import (  # noqa: E402
    _definite_py,
    _gtsv_ref,
    _ldl_factor_py,
    _ldl_solve_py,
    _negcount_py,
    _power_moment_grad_loop_py,
    _power_moment_loop_py,
    _tridiag_solve_py,
)
from test_quadrature import quotient_series_ref  # noqa: E402

M = 4096
SMALL = 256  # cells of the small power-functional table
PENCIL = 512  # rows of the small bisection-test pencil
SHIFT = 0.25  # bisection-test shift; T - SHIFT*W stays definite
_PENCILS = {}  # one workspace per pencil size and backend
_FACTORS = {}  # one factor per pencil size and backend, and the reference's
_POWERS = {}  # one power workspace per table size and exponent, with the g of its profile
_SYSTEMS = {}  # one KKT system per size and backend


def _workspace(d, e, w):
    """The pencil's workspace, built on the first call on each backend."""
    key = (d.shape[0], _kernels._PTTRF is None)
    if key not in _PENCILS:
        _PENCILS[key] = _kernels.PencilWorkspace(d, e, w)
    return _PENCILS[key]


def bisection_test(d, e, w, shift):
    """One bisection step's test as the eigensolver makes it."""
    return _workspace(d, e, w)(shift)


def workspace_factor(d, e, w, shift):
    """One factor as the eigensolver takes it, from the pencil's workspace."""
    return _workspace(d, e, w).factor(shift)


def _power(u, w, t, p):
    """The table's ``PowerWorkspace`` and the g of u, made on the first call."""
    key = (w.shape[0], p)
    if key not in _POWERS:
        power = _kernels.PowerWorkspace(w, t, p)
        _POWERS[key] = power, power.value(u)[1]
    return _POWERS[key]


def workspace_value(u, w, t, p):
    """F and g of u from the table's reused workspace."""
    return _power(u, w, t, p)[0].value(u)


def workspace_gradient(u, w, t, p):
    """grad F of u from its g, on the table's reused workspace."""
    power, g = _power(u, w, t, p)
    return power.gradient(g)


def kkt_solve(d, e, rhs):
    """One KKT solve as the minimizer makes it, on the backend's
    ``TridiagonalSystem``, built on the first call per size and backend."""
    key = (d.shape[0], _kernels._GTSV is None)
    if key not in _SYSTEMS:
        _SYSTEMS[key] = _kernels.TridiagonalSystem(d.shape[0], rhs.shape[0])
    return _SYSTEMS[key](d, e, rhs)


def kkt_solve_loop(d, e, rhs):
    """The same solve by the reference ``dgtsv`` loop."""
    return _gtsv_ref(d, e, e, rhs)


def time_ns(fn, args, per, repeat):
    """The minimum and the median over ``repeat`` timed calls, in ns per
    ``per``, after one untimed call."""
    fn(*args)
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return 1e9 * min(times) / per, 1e9 * statistics.median(times) / per


def _spread(t):
    """A (minimum, median) pair as "min/median"."""
    return f"{t[0]:.0f}/{t[1]:.0f}"


def bound_solve(d, e, w, b):
    """One solve against a factor of the pencil at SHIFT, taken from its
    workspace on the first call on each backend."""
    key = (d.shape[0], _kernels._PTTRS is None)
    if key not in _FACTORS:
        _FACTORS[key] = workspace_factor(d, e, w, SHIFT)
    return _FACTORS[key].solve(b)


def bound_solve_loop(d, e, w, b):
    key = (d.shape[0], "reference")
    if key not in _FACTORS:
        _FACTORS[key] = _ldl_factor_py(d - SHIFT * w, e)
    return _ldl_solve_py(*_FACTORS[key], b)


@contextlib.contextmanager
def python_backend():
    """Run the kernels on their Python-float recurrences: the three LAPACK
    handles unset and ``BACKEND`` naming them, as ``tests/conftest.py`` and
    ``equivalence.py`` do."""
    saved = _kernels._PTTRF, _kernels._PTTRS, _kernels._GTSV, _kernels.BACKEND
    _kernels._PTTRF = _kernels._PTTRS = _kernels._GTSV = None
    _kernels.BACKEND = "python"
    try:
        yield
    finally:
        _kernels._PTTRF, _kernels._PTTRS, _kernels._GTSV, _kernels.BACKEND = saved


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
    wq = np.abs(rng.standard_normal((M, _GAUSS_ORDER)))  # the width of the forms' table
    tq = _cell_points(_GAUSS_ORDER)
    u_signed = rng.standard_normal(M + 1)

    def grad_loop(u, wq, tq, p):
        return _power_moment_grad_loop_py(u, wq, tq, p, np.zeros(u.shape[0]))

    def shifted_loop(d, e, w, shift):
        return _negcount_py(d - shift * w, e)

    def shifted_definite_loop(d, e, w, shift):
        return _definite_py(d - shift * w, e)

    def shifted_factor_loop(d, e, w, shift):
        return _ldl_factor_py(d - shift * w, e)

    rows = [
        *(
            (f"bisection test {n}", "row", bisection_test, shifted_definite_loop, (d[:n], e[: n - 1], w[:n], SHIFT))
            for n in (PENCIL, M)
        ),
        ("negcount", "row", _kernels.negcount, _negcount_py, (d - 0.5 * w, e)),
        ("inertia_count", "row", inertia_count, shifted_loop, (d, e, w, 0.5)),
        *(
            (f"factor {n}", "row", workspace_factor, shifted_factor_loop, (d[:n], e[: n - 1], w[:n], SHIFT))
            for n in (PENCIL, M)
        ),
        *(
            (f"bound solve {n}", "row", bound_solve, bound_solve_loop, (d[:n], e[: n - 1], w[:n], b[:n]))
            for n in (SMALL, PENCIL, M)
        ),
        ("tridiag_solve", "row", _kernels.tridiag_solve, _tridiag_solve_py, (d, e, b)),
        *(
            (f"KKT solve {n}", "row", kkt_solve, kkt_solve_loop, (d[:n] - 2.5, e[: n - 1], rng.standard_normal((2, n))))
            for n in (64, SMALL)
        ),
    ]
    for cells in (M, SMALL):
        for p in (2.6667, 3.0, 4.0):
            args = (u[: cells + 1], wq[:cells], tq, p)
            signed = (u_signed[: cells + 1], wq[:cells], tq, p)
            rows += [
                (f"power_moment {cells} p={p:g}", "cell", _kernels.power_moment, _power_moment_loop_py, args),
                (f"power_moment_grad+ {cells} p={p:g}", "cell", _kernels.power_moment_grad, grad_loop, args),
                (f"power_moment_grad+- {cells} p={p:g}", "cell", _kernels.power_moment_grad, grad_loop, signed),
                (f"workspace value+ {cells} p={p:g}", "cell", workspace_value, _power_moment_loop_py, args),
                (f"workspace gradient {cells} p={p:g}", "cell", workspace_gradient, grad_loop, args),
            ]
    lapack = _kernels.BACKEND == "lapack"
    header = (
        f"{'kernel':34s} {'unit':>8s} {'lapack':>11s} {'python':>11s} {'reference':>13s}"
        f" {'ref/lapack':>11s} {'ref/python':>11s}"
    )
    print(f"backend resolved at import: {_kernels.BACKEND}; |u|^p tables of {_GAUSS_ORDER} points per cell")
    print("times are min/median over the repeats; ratios of the medians")
    print(header)
    print("-" * len(header))
    for name, unit, fast, ref, args in rows:
        # the reference power loops are ~100x slower; time them less often
        ref_repeat = repeat if unit != "cell" else max(1, repeat // 5)
        per = {"row": args[0].shape[0], "cell": args[1].shape[0]}[unit]  # rows or cells of the table
        t_lapack = time_ns(fast, args, per, repeat) if lapack and unit != "cell" else None
        with python_backend():
            t_python = time_ns(fast, args, per, repeat)
        t_ref = time_ns(ref, args, per, ref_repeat)
        lapack_ns, lapack_ratio = ("-", "-") if t_lapack is None else (_spread(t_lapack), f"{t_ref[1] / t_lapack[1]:.1f}x")
        print(
            f"{name:34s} {'ns/' + unit:>8s} {lapack_ns:>11s} {_spread(t_python):>11s} {_spread(t_ref):>13s}"
            f" {lapack_ratio:>11s} {t_ref[1] / t_python[1]:10.1f}x"
        )

    s5 = unit_sphere(5)
    quadrature = [
        ("bubble_moments N=5 tol=1e-10", bubble_moments, None, (5, 1.0, 1e-10)),
        ("bubble_moments N=4", bubble_moments, None, (4, 1.0)),
        ("quotient_series S5", quotient_series, quotient_series_ref, (s5, -1.0, 1.0, (4, 8, 16, 32, 64))),
    ]
    header = f"{'quadrature':30s} {'unit':>8s} {'new':>11s} {'reference':>13s} {'ref/new':>11s}"
    print()
    print(header)
    print("-" * len(header))
    for name, fast, ref, args in quadrature:
        t_new = time_ns(fast, args, 1000, repeat)
        if ref is None:
            print(f"{name:30s} {'us/call':>8s} {_spread(t_new):>11s} {'-':>13s} {'-':>11s}")
            continue
        t_ref = time_ns(ref, args, 1000, repeat)
        print(f"{name:30s} {'us/call':>8s} {_spread(t_new):>11s} {_spread(t_ref):>13s} {t_ref[1] / t_new[1]:10.2f}x")

    s3, s4, ball = unit_sphere(3), unit_sphere(4), euclidean_ball(3, 0.1)
    log_grid = build_grid(0.1, 1024, 3.0, "dirichlet")

    def log_weight(r):
        return 1.0 / np.square(r * np.log(r))

    assembly = [
        *(
            (f"assemble_forms S3 sigma=2 M={n}", assemble_forms, (build_grid(np.pi, n, 2.0, "reflected"), s3, 2.0))
            for n in (PENCIL, M)
        ),
        ("assemble_forms S4 sigma=1 M=256", assemble_forms, (build_grid(np.pi, SMALL, 2.0, "reflected"), s4, 1.0)),
        ("lumped log weight M=1024", assemble_lumped_weight, (log_grid, ball, log_weight)),
    ]
    header = f"{'assembly':34s} {'unit':>8s} {'time':>11s}"
    print()
    print(header)
    print("-" * len(header))
    for name, fn, args in assembly:
        print(f"{name:34s} {'ns/cell':>8s} {_spread(time_ns(fn, args, args[0].ncell, repeat)):>11s}")


if __name__ == "__main__":
    main()
