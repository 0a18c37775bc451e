"""Hot numeric kernels.

The three inner loops that dominate runtime are Sturm-sequence inertia
counts, tridiagonal LDL^T factors and solves (inverse iteration and the
minimizer), and the singular-weight power functional of the constrained
minimizer.  The power functional is vectorized NumPy.

The recurrences run on the backend resolved once at import, ``BACKEND``:

- ``"lapack"``: ``dpttrf``/``dpttrs`` of the ILP64 OpenBLAS that the numpy
  wheel bundles (``numpy.libs/libscipy_openblas64_*``), through ``ctypes``.
  ``ldl_factor`` is ``dpttrf`` (the Python recurrence's operations in its
  order); a pivot that is not positive sends it to the Python path, which
  carries an exact zero pivot on as inf/nan.  ``ldl_solve`` is ``dpttrs``
  for n >= 2; at n = 1 ``dpttrs`` multiplies by 1/D(1), an ulp off the
  division, so n = 1 stays on the Python path.  ``negcount`` restarts
  ``dpttrf`` after each negative pivot it stops at.
- ``"python"``, when the library or a symbol is missing: each call converts
  its arrays with ``tolist`` once and walks them with ``zip``, the same IEEE
  operations in the same order as indexing the arrays element by element.
  An exact zero pivot makes Python float division raise; the factor and
  solve then repeat the recurrence on NumPy scalars, which return the same
  inf/nan bits an indexed loop gives.

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
# negcount restarts dpttrf after each negative pivot, a few microseconds a
# call.  Counts near the least eigenvalue stay below _RESTARTS; a deeper one
# (a bracket search far above it) costs at most _RESTARTS calls more than
# the Python path.
_RESTARTS = 5


def _pttrf(addr, n, start):
    """``dpttrf`` in place on rows ``start:`` of the buffer [d, e] of length
    2n - 1 at address ``addr``; returns LAPACK's ``info``."""
    info = ctypes.c_int64()
    addr += 8 * start
    _PTTRF(ctypes.byref(ctypes.c_int64(n - start)), addr, addr + 8 * n, ctypes.byref(info))
    return info.value


def _stacked(d, e):
    """One contiguous float64 copy [d, e] for ``dpttrf`` to overwrite."""
    buf = np.empty(2 * d.shape[0] - 1)
    buf[: d.shape[0]] = d
    buf[d.shape[0] :] = e
    return buf


# ---------------------------------------------------------------------------
# Sturm-sequence inertia count
# ---------------------------------------------------------------------------

def negcount(d, e):
    """Number of negative pivots in the LDL^T factorization of a symmetric
    tridiagonal matrix with diagonal ``d`` and off-diagonal ``e``.

    Returns -1 on an exactly zero pivot (caller perturbs the shift and
    retries).  The LAPACK path forms each pivot as d - (e/p)*e, as
    ``dpttrf`` does; after its ``_RESTARTS``-th negative pivot it hands the
    remaining rows to the Python path, which forms d - e*e/p.
    """
    if _PTTRF is None:
        return _negcount_python(d, e)
    n = d.shape[0]
    buf = _stacked(d, e)
    addr = buf.ctypes.data
    count = start = 0
    while True:
        info = _pttrf(addr, n, start)
        if info == 0:
            return count
        k = start + info - 1
        if buf[k] == 0.0:
            return -1
        count += 1
        if k == n - 1:
            return count
        piv, ek = float(buf[k]), float(buf[n + k])
        buf[k + 1] = float(buf[k + 1]) - ek / piv * ek
        start = k + 1
        if count == _RESTARTS:
            rest = _negcount_python(buf[start:n], buf[n + start :])
            return -1 if rest < 0 else count + rest


def _negcount_python(d, e):
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
        buf = _stacked(d, e)
        if _pttrf(buf.ctypes.data, d.shape[0], 0) == 0:
            return buf[: d.shape[0]], buf[d.shape[0] :]
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

def power_moment(u, w, t, p):
    """Value of the weighted |u|^p moment over all cells."""
    v = u[:-1, None] + (u[1:, None] - u[:-1, None]) * t[None, :]
    return float(np.sum(w * np.abs(v) ** p))


def power_moment_grad(u, w, t, p):
    """Value and nodal gradient of the weighted |u|^p moment."""
    grad = np.zeros(u.shape[0])
    v = u[:-1, None] + (u[1:, None] - u[:-1, None]) * t[None, :]
    av = np.abs(v)
    total = float(np.sum(w * av**p))
    c = w * p * av ** (p - 1.0) * np.sign(v)
    grad[:-1] += c @ (1.0 - t)
    grad[1:] += c @ t
    return total, grad
