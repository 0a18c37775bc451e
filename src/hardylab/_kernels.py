"""Hot numeric kernels.

The three inner loops that dominate runtime are Sturm-sequence inertia
counts, tridiagonal LDL^T factors and solves (inverse iteration and the
minimizer), and the singular-weight power functional of the constrained
minimizer.  The recurrences run over Python floats: each call converts its
arrays with ``tolist`` once and walks them with ``zip``, which performs the
same IEEE operations in the same order as indexing the arrays element by
element, about four times faster (``benchmarks/bench_kernels.py``).  An
exact zero pivot makes Python float division raise; the factor and solve
then repeat the recurrence on NumPy scalars, which return the same inf/nan
bits an indexed loop gives.  The power functional is vectorized NumPy.
"""

from __future__ import annotations

import numpy as np

HAVE_NUMBA = False  # kept for the benchmark's environment stamp


# ---------------------------------------------------------------------------
# Sturm-sequence inertia count
# ---------------------------------------------------------------------------

def negcount(d, e):
    """Number of negative pivots in the LDL^T factorization of a symmetric
    tridiagonal matrix with diagonal ``d`` and off-diagonal ``e``.

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
    try:
        diag, low = _factor(d.tolist(), e.tolist())
    except ZeroDivisionError:
        diag, low = _factor(list(d), list(e))
    return np.array(diag, dtype=float), np.array(low, dtype=float)


def ldl_solve(diag, low, b):
    """Solve L D L^T x = b from the factors of ``ldl_factor``."""
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
