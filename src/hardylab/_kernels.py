"""Hot numeric kernels.

The three inner loops that dominate runtime are tridiagonal definiteness
tests (the bisections of the eigensolve and of the lambda-star bracket),
tridiagonal LDL^T factors and solves (the eigensolve's estimate and
inverse iteration, and the minimizer), and the singular-weight power
functional of the constrained minimizer; the minimizer's Newton step also
solves one general tridiagonal system with two right-hand sides per step
(``TridiagonalSystem``).  The power functional is NumPy on every backend, in one ``PowerWorkspace`` per weight
table.  The table is the one ``forms.assemble_forms`` builds: (cells, q)
weights at the same q = 8 Legendre points t of every cell, whose first row
is cell 0's rule for its singular weight, so one ``pow`` per point serves
every cell.  The workspace holds the hat basis [1 - t; t] and the
(cells, 2) buffer of cell end values, so u at the points of all cells is
one (cells, 2) by (2, q) product.  ``value`` gives F and
g = w sign(v) |v|^{p-1} from one ``pow`` per point, and ``gradient`` forms
grad F from g only when asked: the minimizer evaluates two trial points per
step and keeps one.  ``hessian`` forms the tridiagonal (d, e) of
sum (g/v) [1 - t; t][1 - t; t]^T, (1/(p(p - 1))) of grad^2 F, from the same
g, with no second ``pow``: one (cells, q) by (q, 3) product against the hat
products.  On a profile with no sign bit set (the minimizer's starts)
``value`` skips ``abs`` and ``copysign``, which are the identity there.  ``power_moment_grad`` is a
workspace's value and gradient, so there is one path.
``negcount``, the full Sturm count (d - e*e/p in Python floats on every
backend), serves only ``eigensolver.inertia_count``.

A tridiagonal pencil (T, W) is tested, factored and solved in one place,
its ``PencilWorkspace`` (``definite_test`` builds one), which owns the
[d, e] buffer that ``dpttrf`` overwrites.  Calling it at a shift s is the
definiteness test: T - s*W formed in the buffer (the IEEE operations of
d - s*w) and one ``dpttrf`` run, which stops at the first pivot that is not
positive.  A factor exists only for a shift that tests definite:
``factor(s)`` makes the same shift and run and copies the pivots and
multipliers into an ``LDLFactor``, with room for a right-hand side, or
raises a ``DomainError`` naming s.  A solve returns that room, which the
factor's next solve overwrites.  The callers test first: the eigensolve
factors at the definite end of its bracket and below it, and the minimizer
factors A only after A - 1e-8 (1 + |lambda|) Mass tested definite, else
K + (1 + |lambda|) Mass.  A factor stays valid after later tests and
factors of its workspace.  ``ldl_factor(d, e)`` is the factor of the pencil
(T, 0) at s = 0: there is one factor path.

One recurrence runs on both backends, LAPACK's: ``dpttrf`` forms l = e/p,
then p' = d - l*e, and ``dpttrs`` (its ``dptts2``) solves L y = b by
y_i = b_i - y_{i-1} l_{i-1}, then D L^T x = y by x_n = y_n / p_n and
x_i = y_i / p_i - x_{i+1} l_i, or x = b (1/p) at n = 1.  The backend is
resolved once at import, ``BACKEND``; each workspace and factor binds its
executor, with its arguments, when it is made:

- ``"lapack"``: ``dpttrf``/``dpttrs``/``dgtsv`` of the ILP64 OpenBLAS
  that the numpy wheel bundles (``numpy.libs/libscipy_openblas64_*``),
  through ``ctypes``, each buffer by its raw address (``_address``).
- ``"python"``, when the library or a symbol is missing: stand-ins that
  make the same operations in the same order on Python floats, read from
  the buffer with ``tolist`` once and written back, so both backends give
  the same bits.  A definiteness test runs the recurrence on one running
  pivot and sets only ``info``, which is all that a test reads.

``TridiagonalSystem`` solves B X = R for a symmetric tridiagonal B that
need not be definite, as the minimizer's KKT matrix, with the same
library's ``dgtsv`` (LU with partial pivoting), bound once to one buffer
[DL, D, DU, X].

``COUNTS`` tallies, process-wide and on both backends, the calls served:
``definite_tests`` (calls of a pencil workspace), ``factorizations`` (of
its ``factor``, so of every ``ldl_factor``), ``solves`` (``LDLFactor.solve``)
and ``evaluations`` (``power_moment`` and ``PowerWorkspace.value``, so every
``power_moment_grad`` too; a ``gradient`` is not one).  The run records
report its changes (``records``).

``benchmarks/bench_kernels.py`` times both backends.
"""

from __future__ import annotations

import ctypes
import glob
import os

import numpy as np

from .errors import DomainError

HAVE_NUMBA = False  # kept for the benchmark's environment stamp
COUNTS = {"definite_tests": 0, "factorizations": 0, "solves": 0, "evaluations": 0}  # calls served


def _lapack():
    """``dpttrf``, ``dpttrs`` and ``dgtsv`` of the OpenBLAS bundled with
    numpy, or ``(None, None, None)`` when the library or a symbol is
    missing."""
    wheel_libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    libs = sorted(glob.glob(os.path.join(wheel_libs, "libscipy_openblas64_*")))
    try:
        lib = ctypes.CDLL(libs[0])
        pttrf, pttrs, gtsv = lib.scipy_dpttrf_64_, lib.scipy_dpttrs_64_, lib.scipy_dgtsv_64_
    except (IndexError, OSError, AttributeError):
        return None, None, None
    # every argument by reference; integers are int64 (ILP64)
    pttrf.argtypes = [ctypes.c_void_p] * 4  # n, d, e, info
    pttrs.argtypes = [ctypes.c_void_p] * 7  # n, nrhs, d, e, b, ldb, info
    gtsv.argtypes = [ctypes.c_void_p] * 8  # n, nrhs, dl, d, du, b, ldb, info
    pttrf.restype = pttrs.restype = gtsv.restype = None
    return pttrf, pttrs, gtsv


_PTTRF, _PTTRS, _GTSV = _lapack()
BACKEND = "python" if _PTTRF is None else "lapack"
_ONE = ctypes.c_int64(1)


def _address(buf):
    """The address of the array ``buf``'s first byte, as a raw integer that
    keeps no array alive."""
    return ctypes.addressof(ctypes.c_char.from_buffer(buf))


# ---------------------------------------------------------------------------
# The pencil workspace: definiteness test and LDL^T factor of T - s*W.
# ---------------------------------------------------------------------------

def _pttrf_py(buf, n, info):
    """``dpttrf`` on buf = [d, e] in Python floats, with its ``info``: the
    first pivot that is not positive stops it (info = its row); else
    info = 0 and buf holds [D, L]."""
    d = buf.tolist()
    piv = d[0]
    pivots, low = [piv], []
    for di, ei in zip(d[1:n], d[n:]):
        if piv <= 0.0:
            break
        li = ei / piv
        piv = di - li * ei
        pivots.append(piv)
        low.append(li)
    info.value = len(pivots) if piv <= 0.0 else 0
    if not info.value:
        buf[:] = pivots + low


def _pttrf_info_py(buf, n, info):
    """``_pttrf_py``'s ``info`` alone, for a definiteness test: the same
    operations and the same stop on one running pivot, with no pivot or
    multiplier kept and nothing written back."""
    piv = float(buf[0])
    row = 1
    for di, ei in zip(buf[1:n].tolist(), buf[n:].tolist()):
        if piv <= 0.0:
            break
        piv = di - ei / piv * ei
        row += 1
    info.value = row if piv <= 0.0 else 0


def _pttrs_py(buf, n):
    """``dptts2`` on buf = [D, L, b] in Python floats: b becomes x."""
    v = buf.tolist()
    diag, low = v[:n], v[n : 2 * n - 1]
    y = v[2 * n - 1]
    fwd = [y]
    for bi, li in zip(v[2 * n :], low):
        y = bi - y * li
        fwd.append(y)
    x = y * (1.0 / diag[0]) if n == 1 else y / diag[-1]
    out = [x]
    for yi, di, li in zip(fwd[-2::-1], diag[-2::-1], low[::-1]):
        x = yi / di - x * li
        out.append(x)
    out.reverse()
    buf[2 * n - 1 :] = out


class PencilWorkspace:
    """The workspace of the tridiagonal pencil (T, W) = ((d, e), (w, w_off)),
    ``w_off=None`` for a diagonal W: its buffers and bound ``dpttrf``, made
    once.  Called at the shift s: whether every LDL^T pivot of T - s*W is
    positive (an exact zero pivot reads as not definite, which is exact)."""

    def __init__(self, d, e, w, w_off=None):
        self._pencil = d, e, w, w_off
        n = d.shape[0]
        buf = np.empty(2 * n - 1)
        self._diag, self._off = buf[:n], buf[n:]  # the views keep the buffer alive
        self._scratch = np.empty(n)
        self._scratch_off = self._scratch[: n - 1]
        self._info = ctypes.c_int64()
        if _PTTRF is None:  # a test needs only info; a factor keeps the pivots
            self._test, self._pttrf, self._args = _pttrf_info_py, _pttrf_py, (buf, n, self._info)
        else:  # raw addresses, which keep no array alive
            at = _address(buf)
            self._test = self._pttrf = _PTTRF
            self._args = (ctypes.byref(ctypes.c_int64(n)), at, at + 8 * n, ctypes.byref(self._info))

    def _shift(self, s):
        """T - s*W formed in the buffer."""
        d, e, w, w_off = self._pencil
        diag, off, scratch = self._diag, self._off, self._scratch
        np.multiply(w, s, scratch)
        np.subtract(d, scratch, diag)
        if w_off is None:
            off[:] = e
        else:
            scratch = self._scratch_off
            np.multiply(w_off, s, scratch)
            np.subtract(e, scratch, off)

    def __call__(self, s):
        COUNTS["definite_tests"] += 1
        self._shift(s)
        self._test(*self._args)
        return self._info.value == 0

    def factor(self, s):
        """The ``LDLFactor`` of T - s*W, or a ``DomainError`` when it does
        not test definite."""
        COUNTS["factorizations"] += 1
        self._shift(s)
        self._pttrf(*self._args)
        if self._info.value:
            raise DomainError(f"T - s*W is not positive definite at s = {s!r}, so it has no LDL^T factor")
        return LDLFactor(self._diag, self._off)


definite_test = PencilWorkspace  # a workspace called with a shift is the definiteness test


def ldl_factor(d, e):
    """The ``LDLFactor`` of a positive definite tridiagonal T = (d, e): the
    pencil (T, 0)'s at s = 0, whose T - 0*0 has the bits of T."""
    return PencilWorkspace(d, e, np.zeros(d.shape[0])).factor(0.0)


def negcount(d, e):
    """Number of negative LDL^T pivots d - e*e/p of the symmetric tridiagonal
    (d, e), in Python floats; -1 on an exactly zero pivot (the caller
    perturbs the shift and retries)."""
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


class LDLFactor:
    """T = L D L^T from the pivots ``diag`` and the unit-lower multipliers
    ``low``, copied into one buffer [D, L, x] with its ``dpttrs`` bound
    once: a solve copies b into x, makes one run and returns x itself, which
    the next solve overwrites.  The views ``diag``, ``low`` and ``_x`` keep
    the buffer alive."""

    def __init__(self, diag, low):
        n = diag.shape[0]
        if low.shape != (n - 1,):
            raise ValueError(f"factors of order {n} need {n - 1} multipliers, got shape {low.shape}")
        buf = np.empty(3 * n - 1)
        buf[:n] = diag
        buf[n : 2 * n - 1] = low
        self.diag, self.low, self._x = buf[:n], buf[n : 2 * n - 1], buf[2 * n - 1 :]
        if _PTTRS is None:
            self._pttrs, self._args = _pttrs_py, (buf, n)
        else:  # raw addresses, which keep no array alive
            at, rows = _address(buf), ctypes.byref(ctypes.c_int64(n))
            self._pttrs, self._args = _PTTRS, (rows, ctypes.byref(_ONE), at, at + 8 * n, at + 8 * (2 * n - 1), rows, ctypes.byref(ctypes.c_int64()))

    def solve(self, b):
        """x with L D L^T x = b: the factor's buffer, valid until its next
        solve."""
        if b.shape != self.diag.shape:
            raise ValueError(f"factors of order {self.diag.shape[0]} need as many right-hand sides, got {b.shape}")
        COUNTS["solves"] += 1
        x = self._x
        x[:] = b
        self._pttrs(*self._args)
        return x


def tridiag_solve(d, e, b):
    """Solve T x = b for a positive definite tridiagonal T = (d, e)."""
    return ldl_factor(d, e).solve(b)


# ---------------------------------------------------------------------------
# General tridiagonal systems: the minimizer's KKT solve.
# ---------------------------------------------------------------------------

def _gtsv_py(buf, n, nrhs, info):
    """``dgtsv`` on buf = [DL, D, DU, B] (B column after column) in Python
    floats, with reference LAPACK's operations in its order (its NRHS > 1
    loop): elimination with a row swap where |DL(i)| > |D(i)|, then the
    back solve.  An exactly zero pivot stops it (info = its row); the
    buffer is written back as LAPACK leaves it."""
    v = buf.tolist()
    dl, d, du = v[: n - 1], v[n - 1 : 2 * n - 1], v[2 * n - 1 : 3 * n - 2]
    cols = [v[3 * n - 2 + j * n : 3 * n - 2 + (j + 1) * n] for j in range(nrhs)]
    info.value = 0
    for i in range(n - 1):  # row N - 1 (i = n - 2) has no fill-in below it
        if abs(d[i]) >= abs(dl[i]):  # no row interchange
            if d[i] == 0.0:
                info.value = i + 1
                break
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            for b in cols:
                b[i + 1] = b[i + 1] - fact * b[i]
            if i < n - 2:
                dl[i] = 0.0
        else:  # interchange rows i and i + 1
            fact = d[i] / dl[i]
            d[i] = dl[i]
            temp = d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
            for b in cols:
                temp = b[i]
                b[i] = b[i + 1]
                b[i + 1] = temp - fact * b[i + 1]
    if not info.value and d[n - 1] == 0.0:
        info.value = n
    if not info.value:
        for b in cols:
            b[n - 1] = b[n - 1] / d[n - 1]
            if n > 1:
                b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
            for i in range(n - 3, -1, -1):
                b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
    buf[:] = dl + d + du + [x for b in cols for x in b]


class TridiagonalSystem:
    """B X = R for a symmetric tridiagonal B of order n and ``nrhs``
    right-hand sides, by ``dgtsv`` (LU with partial pivoting, so B need not
    be definite) bound once to one buffer [DL, D, DU, X].  A call copies B
    and R in, makes one run and returns X, a (nrhs, n) view of the buffer
    that the next call overwrites, or None when B has an exactly zero pivot
    (``info`` > 0)."""

    def __init__(self, n, nrhs):
        buf = np.empty(3 * n - 2 + nrhs * n)
        self._dl, self._d, self._du = buf[: n - 1], buf[n - 1 : 2 * n - 1], buf[2 * n - 1 : 3 * n - 2]
        self._x = buf[3 * n - 2 :].reshape(nrhs, n)  # the views keep the buffer alive
        self._info = ctypes.c_int64()
        if _GTSV is None:
            self._gtsv, self._args = _gtsv_py, (buf, n, nrhs, self._info)
        else:  # raw addresses, which keep no array alive
            at, rows = _address(buf), ctypes.byref(ctypes.c_int64(n))
            self._gtsv = _GTSV
            self._args = (rows, ctypes.byref(ctypes.c_int64(nrhs)), at, at + 8 * (n - 1), at + 8 * (2 * n - 1), at + 8 * (3 * n - 2), rows, ctypes.byref(self._info))

    def __call__(self, d, e, rhs):
        """X for B = (``d``, ``e``) and R's columns the rows of ``rhs``, or
        None."""
        x = self._x
        if d.shape != self._d.shape or e.shape != self._dl.shape or len(rhs) != x.shape[0]:
            raise ValueError(f"a system of order {self._d.shape[0]} with {x.shape[0]} right-hand sides, got {d.shape}, {e.shape}, {len(rhs)}")
        self._d[:], self._dl[:], self._du[:] = d, e, e
        for row, col in zip(x, rhs):
            row[:] = col
        self._gtsv(*self._args)
        return None if self._info.value else x


# ---------------------------------------------------------------------------
# Singular-weight power functional  F(u) = sum_c sum_q W[c,q] |u(x_q)|^p
# on piecewise-linear u; cells are consecutive node pairs.
# ---------------------------------------------------------------------------

class PowerWorkspace:
    """The workspace of the weighted |u|^p moment on the (cells, q) weights
    ``w`` at the points ``t`` of each cell: the hat basis [1 - t; t], its
    transpose view and the (cells, 2) buffer of cell end values, made once.
    ``value(u)`` is F(u) with g = w sign(v) |v|^{p-1} at the points, from
    one ``pow`` per point; ``gradient(g)`` is the nodal gradient of F at the
    u whose g it is.  A caller that keeps only some of the points it
    evaluates forms only their gradients."""

    def __init__(self, w, t, p):
        self.w, self.p = w, p
        basis = np.empty((2, t.shape[0]))
        np.subtract(1.0, t, out=basis[0])
        basis[1] = t
        self._basis, self._basis_t = basis, basis.T
        self._products = np.stack([basis[0] * basis[0], basis[0] * basis[1], basis[1] * basis[1]], axis=1)
        self._ends = np.empty((w.shape[0], 2))

    def _points(self, u):
        """u at the points of every cell: the (cells, 2) matrix of cell end
        values times [1 - t; t]."""
        ends = self._ends
        ends[:, 0] = u[:-1]
        ends[:, 1] = u[1:]
        return ends @ self._basis

    def value(self, u):
        """F(u) = g.v and g, where v is u at the points.  A profile with
        no sign bit set (no negative entry, no -0.0) has v >= +0 at points
        t in [0, 1], where ``abs`` and ``copysign`` are the identity:
        g = w v^{p-1} then skips both, with the same bits."""
        COUNTS["evaluations"] += 1
        v = self._points(u)
        if np.signbit(u).any():
            g = self.w * np.copysign(np.abs(v) ** (self.p - 1.0), v)
        else:
            g = v ** (self.p - 1.0)
            g *= self.w
        return float(np.vdot(g, v)), g

    def gradient(self, g):
        """p g [1 - t; t]^T gathered onto the nodes."""
        ends = g @ self._basis_t
        ends *= self.p
        grad = np.empty(ends.shape[0] + 1)
        grad[:-1] = ends[:, 0]
        grad[-1] = 0.0
        grad[1:] += ends[:, 1]
        return grad

    def hessian(self, u, g):
        """The tridiagonal (d, e) of H = sum over the points of
        (g/v) [1 - t; t][1 - t; t]^T gathered onto the nodes, at the u whose
        g it is: g/v = w |v|^{p-2}, 0 where v = 0 (p > 2), so the Hessian of
        F is p (p - 1) H with no second ``pow``.  One (cells, q) by (q, 3)
        product against the hat products (1 - t)^2, t (1 - t), t^2 gives
        each cell's three entries."""
        v = self._points(u)
        cells = np.divide(g, v, out=np.zeros_like(g), where=v != 0.0) @ self._products
        d = np.empty(cells.shape[0] + 1)
        d[:-1] = cells[:, 0]
        d[-1] = 0.0
        d[1:] += cells[:, 2]
        return d, cells[:, 1]


def power_moment(u, w, t, p):
    """Value of the weighted |u|^p moment over all cells."""
    COUNTS["evaluations"] += 1
    return float(np.vdot(w, np.abs(PowerWorkspace(w, t, p)._points(u)) ** p))


def power_moment_grad(u, w, t, p):
    """Value and nodal gradient of the weighted |u|^p moment: the
    ``PowerWorkspace`` value and gradient at u, one evaluation."""
    power = PowerWorkspace(w, t, p)
    f, g = power.value(u)
    return f, power.gradient(g)
