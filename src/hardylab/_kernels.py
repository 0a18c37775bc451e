"""Hot numeric kernels.

The three inner loops that dominate runtime (Sturm-sequence inertia counts,
tridiagonal LDL^T factors and solves for inverse iteration and the
minimizer, and the singular-weight power functional used by the constrained
minimizer) are compiled with numba when it is installed (the ``jit`` extra).

Setting the environment variable ``HARDYLAB_DISABLE_NUMBA=1`` before import
selects a pure NumPy/Python fallback path instead: recurrence kernels run as
plain Python loops and the power functional uses a vectorized NumPy
implementation.  Results are identical either way (see
``benchmarks/bench_kernels.py`` for the speed comparison).
"""

from __future__ import annotations

import os

import numpy as np

NUMBA_DISABLED = os.environ.get("HARDYLAB_DISABLE_NUMBA", "0") not in ("", "0")

if not NUMBA_DISABLED:
    try:
        from numba import njit as _njit

        HAVE_NUMBA = True
    except ImportError:  # numba is the optional ``jit`` extra
        HAVE_NUMBA = False
else:
    HAVE_NUMBA = False


def _jit(func):
    if HAVE_NUMBA:
        return _njit(cache=True)(func)
    return func


# ---------------------------------------------------------------------------
# Sturm-sequence inertia count
# ---------------------------------------------------------------------------

def _negcount_py(d, e):
    """Number of negative pivots in the LDL^T factorization of a symmetric
    tridiagonal matrix with diagonal ``d`` and off-diagonal ``e``.

    Returns -1 on an exactly zero pivot (caller perturbs the shift and
    retries).
    """
    n = d.shape[0]
    count = 0
    piv = d[0]
    if piv == 0.0:
        return -1
    if piv < 0.0:
        count += 1
    for i in range(1, n):
        piv = d[i] - e[i - 1] * e[i - 1] / piv
        if piv == 0.0:
            return -1
        if piv < 0.0:
            count += 1
    return count


negcount = _jit(_negcount_py)


# ---------------------------------------------------------------------------
# Tridiagonal LDL^T factor and solve.  Callers arrange for positive
# definiteness, so no pivoting is needed.  A fixed matrix is factored once
# and solved against many right-hand sides.
# ---------------------------------------------------------------------------

def _ldl_factor_py(d, e):
    """Pivots ``diag`` and unit-lower multipliers ``low`` of T = L D L^T for
    symmetric tridiagonal T = (d, e)."""
    n = d.shape[0]
    diag = np.empty(n)
    low = np.empty(n - 1)
    diag[0] = d[0]
    for i in range(1, n):
        low[i - 1] = e[i - 1] / diag[i - 1]
        diag[i] = d[i] - low[i - 1] * e[i - 1]
    return diag, low


def _ldl_solve_py(diag, low, b):
    """Solve L D L^T x = b from the factors of ``ldl_factor``."""
    n = diag.shape[0]
    x = b.copy()
    for i in range(1, n):
        x[i] -= low[i - 1] * x[i - 1]
    x[n - 1] /= diag[n - 1]
    for i in range(n - 2, -1, -1):
        x[i] = x[i] / diag[i] - low[i] * x[i + 1]
    return x


def _tridiag_solve_py(d, e, b):
    """Reference Thomas solve in one loop; ``tridiag_solve`` performs the
    same operations in the same order and so returns the same bits."""
    n = d.shape[0]
    diag = np.empty(n)
    low = np.empty(n - 1)
    x = b.copy()
    diag[0] = d[0]
    for i in range(1, n):
        low[i - 1] = e[i - 1] / diag[i - 1]
        diag[i] = d[i] - low[i - 1] * e[i - 1]
    for i in range(1, n):
        x[i] -= low[i - 1] * x[i - 1]
    x[n - 1] /= diag[n - 1]
    for i in range(n - 2, -1, -1):
        x[i] = x[i] / diag[i] - low[i] * x[i + 1]
    return x


ldl_factor = _jit(_ldl_factor_py)
ldl_solve = _jit(_ldl_solve_py)


def tridiag_solve(d, e, b):
    """Solve T x = b for symmetric tridiagonal T = (d, e) via LDL^T."""
    diag, low = ldl_factor(d, e)
    return ldl_solve(diag, low, b)


# ---------------------------------------------------------------------------
# Singular-weight power functional  F(u) = sum_c sum_q W[c,q] |u(x_q)|^p
# on piecewise-linear u; cells are consecutive node pairs.
# ---------------------------------------------------------------------------

def _power_moment_loop_py(u, w, t, p):
    ncell, nq = w.shape
    total = 0.0
    for c in range(ncell):
        ul = u[c]
        ur = u[c + 1]
        for q in range(nq):
            v = ul + (ur - ul) * t[q]
            total += w[c, q] * abs(v) ** p
    return total


def _power_moment_grad_loop_py(u, w, t, p, grad):
    ncell, nq = w.shape
    total = 0.0
    for c in range(ncell):
        ul = u[c]
        ur = u[c + 1]
        gl = 0.0
        gr = 0.0
        for q in range(nq):
            v = ul + (ur - ul) * t[q]
            av = abs(v)
            total += w[c, q] * av ** p
            if av > 0.0:
                s = p * av ** (p - 1.0)
                if v < 0.0:
                    s = -s
                s *= w[c, q]
                gl += s * (1.0 - t[q])
                gr += s * t[q]
        grad[c] += gl
        grad[c + 1] += gr
    return total


_power_moment_loop = _jit(_power_moment_loop_py)
_power_moment_grad_loop = _jit(_power_moment_grad_loop_py)


def _power_moment_np(u, w, t, p):
    v = u[:-1, None] + (u[1:, None] - u[:-1, None]) * t[None, :]
    return float(np.sum(w * np.abs(v) ** p))


def _power_moment_grad_np(u, w, t, p, grad):
    v = u[:-1, None] + (u[1:, None] - u[:-1, None]) * t[None, :]
    av = np.abs(v)
    total = float(np.sum(w * av**p))
    c = w * p * av ** (p - 1.0) * np.sign(v)
    grad[:-1] += c @ (1.0 - t)
    grad[1:] += c @ t
    return total


def power_moment(u, w, t, p):
    """Value of the weighted |u|^p moment over all cells."""
    if HAVE_NUMBA:
        return _power_moment_loop(u, w, t, p)
    return _power_moment_np(u, w, t, p)


def power_moment_grad(u, w, t, p):
    """Value and nodal gradient of the weighted |u|^p moment."""
    grad = np.zeros(u.shape[0])
    if HAVE_NUMBA:
        total = _power_moment_grad_loop(u, w, t, p, grad)
    else:
        total = _power_moment_grad_np(u, w, t, p, grad)
    return total, grad
