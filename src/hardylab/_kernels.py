"""Hot numeric kernels.

The three inner loops that dominate runtime are tridiagonal definiteness
tests (the bisections of the eigensolve and of the lambda-star bracket, one
test per pencil), tridiagonal LDL^T factors and solves (inverse iteration
and the minimizer), and the singular-weight power functional of the
constrained minimizer.  The power functional is NumPy on every backend: u
at the Gauss points of all cells is one (cells, 2) by (2, q) product, and F
with its gradient costs one ``pow`` per point.
``negcount``, the full Sturm count, is the Python-float recurrence on every
backend; only ``eigensolver.inertia_count`` calls it.

The recurrences run on the backend resolved once at import, ``BACKEND``:

- ``"lapack"``: ``dpttrf``/``dpttrs`` of the ILP64 OpenBLAS that the numpy
  wheel bundles (``numpy.libs/libscipy_openblas64_*``), through ``ctypes``.
  A ``definite_test`` call is one ``dpttrf`` call on a reused buffer,
  which stops at the first pivot that is not positive.  ``ldl_factor`` is
  ``dpttrf`` (the Python recurrence's operations in its order); a pivot
  that is not positive sends it to the Python path, which carries an exact
  zero pivot on as inf/nan.
  ``ldl_solve`` is ``dpttrs`` for n >= 2; at n = 1 ``dpttrs`` multiplies by
  1/D(1), an ulp off the division, so n = 1 stays on the Python path.
- ``"python"``, when the library or a symbol is missing: each call converts
  its arrays with ``tolist`` once and walks them with ``zip``, the same IEEE
  operations in the same order as indexing the arrays element by element.
  The test is ``negcount(d - s*w, e - s*w_off) == 0``.  An exact zero
  pivot makes Python float division raise; the factor and solve then repeat
  the recurrence on NumPy scalars, which return the same inf/nan bits an
  indexed loop gives.

``benchmarks/bench_kernels.py`` times both backends.
"""

from __future__ import annotations

import ctypes
import glob
import os

import numpy as np

HAVE_NUMBA = False  # kept for the benchmark's environment stamp


def _lapack():
    """``dpttrf`` and ``dpttrs`` of the OpenBLAS bundled with numpy, or
    ``(None, None)`` when the library or a symbol is missing."""
    wheel_libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    libs = sorted(glob.glob(os.path.join(wheel_libs, "libscipy_openblas64_*")))
    try:
        lib = ctypes.CDLL(libs[0])
        pttrf, pttrs = lib.scipy_dpttrf_64_, lib.scipy_dpttrs_64_
    except (IndexError, OSError, AttributeError):
        return None, None
    # every argument by reference; integers are int64 (ILP64)
    pttrf.argtypes = [ctypes.c_void_p] * 4  # n, d, e, info
    pttrs.argtypes = [ctypes.c_void_p] * 7  # n, nrhs, d, e, b, ldb, info
    pttrf.restype = pttrs.restype = None
    return pttrf, pttrs


_PTTRF, _PTTRS = _lapack()
BACKEND = "python" if _PTTRF is None else "lapack"
_ONE = ctypes.c_int64(1)


def _pttrf_args(buf, n):
    """``dpttrf``'s arguments for the contiguous float64 buffer [d, e] of
    order n, and the ``info`` it sets; the caller keeps ``buf`` alive."""
    info = ctypes.c_int64()
    return (ctypes.byref(ctypes.c_int64(n)), buf.ctypes.data, buf.ctypes.data + 8 * n, ctypes.byref(info)), info


# ---------------------------------------------------------------------------
# Definiteness test and Sturm-sequence inertia count
# ---------------------------------------------------------------------------

def definite_test(d, e, w, w_off=None):
    """The definiteness test of the pencil (T, W) = ((d, e), (w, w_off)),
    ``w_off=None`` for a diagonal W: a function of the shift s that says
    whether every LDL^T pivot of T - s*W is positive (an exact zero pivot
    reads as not definite, which is exact).  The buffer ``dpttrf``
    overwrites, a scratch vector and the ctypes arguments are made once; a
    call forms T - s*W in place (the IEEE operations of d - s*w)."""
    if _PTTRF is None:
        return lambda s: negcount(d - s * w, e if w_off is None else e - s * w_off) == 0
    n = d.shape[0]
    buf = np.empty(2 * n - 1)
    diag, off = buf[:n], buf[n:]
    scratch = np.empty(n)
    scratch_off = scratch[: n - 1]
    args, info = _pttrf_args(buf, n)

    def test(s):
        np.multiply(w, s, scratch)
        np.subtract(d, scratch, diag)
        if w_off is None:
            off[:] = e
        else:
            np.multiply(w_off, s, scratch_off)
            np.subtract(e, scratch_off, off)
        _PTTRF(*args)  # diag keeps buf alive
        return info.value == 0

    return test


def negcount(d, e):
    """Number of negative pivots in the LDL^T factorization of a symmetric
    tridiagonal matrix with diagonal ``d`` and off-diagonal ``e``, formed as
    d - e*e/p in Python floats on every backend.

    Returns -1 on an exactly zero pivot (caller perturbs the shift and
    retries).
    """
    piv = float(d[0])
    if piv == 0.0:
        return -1
    count = 1 if piv < 0.0 else 0
    for di, e2 in zip(d[1:].tolist(), (e * e).tolist()):
        piv = di - e2 / piv
        if piv <= 0.0:
            if piv == 0.0:
                return -1
            count += 1
    return count


# ---------------------------------------------------------------------------
# Tridiagonal LDL^T factor and solve.  Callers arrange for positive
# definiteness, so no pivoting is needed.  A fixed matrix is factored once
# and solved against many right-hand sides.
# ---------------------------------------------------------------------------

def _factor(d, e):
    piv = d[0]
    diag = [piv]
    low = []
    for di, ei in zip(d[1:], e):
        li = ei / piv
        piv = di - li * ei
        low.append(li)
        diag.append(piv)
    return diag, low


def _solve(diag, low, b):
    y = b[0]
    fwd = [y]
    for bi, li in zip(b[1:], low):
        y = bi - li * y
        fwd.append(y)
    x = y / diag[-1]
    out = [x]
    for yi, di, li in zip(fwd[-2::-1], diag[-2::-1], low[::-1]):
        x = yi / di - li * x
        out.append(x)
    out.reverse()
    return out


def ldl_factor(d, e):
    """Pivots ``diag`` and unit-lower multipliers ``low`` of T = L D L^T for
    symmetric tridiagonal T = (d, e)."""
    if _PTTRF is not None:
        n = d.shape[0]
        buf = np.concatenate((d, e), dtype=float)
        args, info = _pttrf_args(buf, n)
        _PTTRF(*args)
        if info.value == 0:
            return buf[:n], buf[n:]
    try:
        diag, low = _factor(d.tolist(), e.tolist())
    except ZeroDivisionError:
        diag, low = _factor(list(d), list(e))
    return np.array(diag, dtype=float), np.array(low, dtype=float)


def ldl_solve(diag, low, b):
    """Solve L D L^T x = b from the factors of ``ldl_factor``."""
    n = diag.shape[0]
    if _PTTRS is not None and n >= 2:
        if low.shape != (n - 1,) or b.shape != (n,):
            raise ValueError(f"factors of order {n} need {n - 1} multipliers and {n} right-hand sides")
        diag = np.ascontiguousarray(diag, dtype=float)
        low = np.ascontiguousarray(low, dtype=float)
        x = np.array(b, dtype=float)
        rows, info = ctypes.c_int64(n), ctypes.c_int64()
        _PTTRS(
            ctypes.byref(rows), ctypes.byref(_ONE), diag.ctypes.data, low.ctypes.data,
            x.ctypes.data, ctypes.byref(rows), ctypes.byref(info),
        )
        return x
    try:
        x = _solve(diag.tolist(), low.tolist(), b.tolist())
    except ZeroDivisionError:
        x = _solve(list(diag), list(low), list(b))
    return np.array(x, dtype=float)


def tridiag_solve(d, e, b):
    """Solve T x = b for symmetric tridiagonal T = (d, e) via LDL^T."""
    diag, low = ldl_factor(d, e)
    return ldl_solve(diag, low, b)


# ---------------------------------------------------------------------------
# Singular-weight power functional  F(u) = sum_c sum_q W[c,q] |u(x_q)|^p
# on piecewise-linear u; cells are consecutive node pairs.
# ---------------------------------------------------------------------------

def _cell_values(u, t):
    """u at the quadrature points of every cell, and the hat basis: the
    (cells, 2) matrix of cell end values times the (2, q) basis [1 - t; t]."""
    basis = np.empty((2, t.shape[0]))
    np.subtract(1.0, t, out=basis[0])
    basis[1] = t
    ends = np.empty((u.shape[0] - 1, 2))
    ends[:, 0] = u[:-1]
    ends[:, 1] = u[1:]
    return ends @ basis, basis


def power_moment(u, w, t, p):
    """Value of the weighted |u|^p moment over all cells."""
    v, _ = _cell_values(u, t)
    return float(np.vdot(w, np.abs(v) ** p))


def power_moment_grad(u, w, t, p):
    """Value and nodal gradient of the weighted |u|^p moment, from one
    ``pow`` per point: with g = w sign(v) |v|^{p-1}, F = g.v and the
    gradient is p g [1 - t; t]^T gathered onto the nodes."""
    v, basis = _cell_values(u, t)
    g = w * np.copysign(np.abs(v) ** (p - 1.0), v)
    ends = g @ basis.T
    ends *= p
    grad = np.empty(u.shape[0])
    grad[:-1] = ends[:, 0]
    grad[-1] = 0.0
    grad[1:] += ends[:, 1]
    return float(np.vdot(g, v)), grad
