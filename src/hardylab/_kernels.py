"""Hot numeric kernels.

The three inner loops that dominate runtime are tridiagonal definiteness
tests (the bisections of the eigensolve and of the lambda-star bracket),
tridiagonal LDL^T factors and solves (the eigensolve's estimate and
inverse iteration, and the minimizer), and the singular-weight power
functional of the constrained minimizer.  The power functional is NumPy on
every backend, in one ``PowerWorkspace`` per weight table: it holds the hat
basis [1 - t; t] and the (cells, 2) buffer of cell end values, so u at the
Gauss points of all cells is one (cells, 2) by (2, q) product.  ``value``
gives F and g = w sign(v) |v|^{p-1} from one ``pow`` per point, and
``gradient`` forms grad F from g only when asked: the minimizer evaluates
two trial points per step and keeps one.  On a profile with no sign bit
set (the minimizer's starts and mixed candidates) ``value`` skips ``abs``
and ``copysign``, which are the identity there.  ``power_moment_grad`` is a
workspace's value and gradient, so there is one path.
``negcount``, the full Sturm count, is the Python-float recurrence on every
backend; only ``eigensolver.inertia_count`` calls it.

A tridiagonal pencil (T, W) is tested, factored and solved in one place,
its ``PencilWorkspace`` (``definite_test`` builds one).  The workspace owns
the [d, e] buffer that ``dpttrf`` overwrites, a scratch vector and the
ctypes arguments, made once per pencil.  Calling it at a shift s is the
definiteness test: T - s*W formed in the buffer (the IEEE operations of
d - s*w) and one ``dpttrf`` call, which stops at the first pivot that is
not positive.  ``factor(s)`` makes the same shift and the same call and
returns an ``LDLFactor`` that copies the pivots and multipliers out of the
buffer, with room for a right-hand side and its ``dpttrs`` arguments
bound once.  So a factor stays valid after later tests and factors of its
workspace: the eigensolve solves with its estimate's factor before the fine
bisection tests on.  ``ldl_factor(d, e)`` is the factor of a bare T, taken
from the workspace of (T, 0) at s = 0: there is one factor path.

The recurrences run on the backend resolved once at import, ``BACKEND``:

- ``"lapack"``: ``dpttrf``/``dpttrs`` of the ILP64 OpenBLAS that the numpy
  wheel bundles (``numpy.libs/libscipy_openblas64_*``), through ``ctypes``.
  ``dpttrf`` makes the Python recurrence's operations in its order; a
  factor whose pivot is not positive goes to the Python path, which
  carries an exact zero pivot on as inf/nan.  A solve is one copy of b
  into the factor's buffer, one ``dpttrs`` call (n >= 2) and a copy out.
  At n = 1 ``dpttrs`` multiplies by 1/D(1), an ulp off the division, so
  n = 1 stays on the Python path.
- ``"python"``, when the library or a symbol is missing: each call converts
  its arrays with ``tolist`` once and walks them with ``zip``, the same IEEE
  operations in the same order as indexing the arrays element by element.
  The test is ``negcount(d - s*w, e - s*w_off) == 0``.  An exact zero
  pivot makes Python float division raise; the factor and solve then repeat
  the recurrence on NumPy scalars, which return the same inf/nan bits an
  indexed loop gives.

``COUNTS`` tallies, process-wide and on both backends, the calls served:
``definite_tests`` (calls of a pencil workspace), ``factorizations`` (its
``factor``, so every ``ldl_factor`` too, whether ``dpttrf`` or the Python
recurrence made it), ``solves`` (``LDLFactor.solve``) and ``evaluations``
(``power_moment`` and ``PowerWorkspace.value``, so every
``power_moment_grad`` too; a ``gradient`` is not one).  The run records
report its changes (``records``).

``benchmarks/bench_kernels.py`` times both backends.
"""

from __future__ import annotations

import ctypes
import glob
import os

import numpy as np

HAVE_NUMBA = False  # kept for the benchmark's environment stamp
COUNTS = {"definite_tests": 0, "factorizations": 0, "solves": 0, "evaluations": 0}  # calls served


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


# ---------------------------------------------------------------------------
# The pencil workspace: definiteness test and LDL^T factor of T - s*W.
# Callers test before they factor, so no pivoting is needed.
# ---------------------------------------------------------------------------

class PencilWorkspace:
    """The workspace of the tridiagonal pencil (T, W) = ((d, e), (w, w_off)),
    ``w_off=None`` for a diagonal W: its buffers and ctypes arguments, made
    once.  Calling it at the shift s is the definiteness test: whether every
    LDL^T pivot of T - s*W is positive (an exact zero pivot reads as not
    definite, which is exact).  ``factor(s)`` makes the same shift and the
    same ``dpttrf`` call and returns the ``LDLFactor`` of T - s*W, which
    stays valid after later tests and factors of the workspace."""

    def __init__(self, d, e, w, w_off=None):
        self._pencil = d, e, w, w_off
        self._args = None
        if _PTTRF is not None:
            n = d.shape[0]
            buf = np.empty(2 * n - 1)
            self._diag, self._off = buf[:n], buf[n:]
            self._scratch = np.empty(n)
            self._scratch_off = self._scratch[: n - 1]
            self._info = ctypes.c_int64()
            at = buf.ctypes.data
            self._args = (ctypes.byref(ctypes.c_int64(n)), at, at + 8 * n, ctypes.byref(self._info))

    def _shifted(self, s):
        """T - s*W as new arrays."""
        d, e, w, w_off = self._pencil
        return d - s * w, e if w_off is None else e - s * w_off

    def _pttrf(self, s):
        """T - s*W formed in the buffer (the IEEE operations of
        ``_shifted``) and one ``dpttrf`` call on it: whether every pivot is
        positive.  ``dpttrf`` stops at the first pivot that is not."""
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
        _PTTRF(*self._args)  # the views keep the buffer alive
        return self._info.value == 0

    def __call__(self, s):
        COUNTS["definite_tests"] += 1
        if self._args is None:
            return negcount(*self._shifted(s)) == 0
        return self._pttrf(s)

    def factor(self, s):
        """The ``LDLFactor`` of T - s*W.  A pivot that is not positive
        sends it to the Python recurrence, which carries an exact zero
        pivot on as inf/nan."""
        COUNTS["factorizations"] += 1
        if self._args is not None and self._pttrf(s):
            return LDLFactor(self._diag, self._off)
        d, e = self._shifted(s)
        try:
            diag, low = _factor(d.tolist(), e.tolist())
        except ZeroDivisionError:
            diag, low = _factor(list(d), list(e))
        return LDLFactor(np.array(diag), np.array(low))


definite_test = PencilWorkspace  # a workspace called with a shift is the definiteness test


def ldl_factor(d, e):
    """The ``LDLFactor`` of symmetric tridiagonal T = (d, e): the factor of
    the pencil (T, 0) at s = 0, whose T - 0*0 has the bits of T."""
    return PencilWorkspace(d, e, np.zeros(d.shape[0])).factor(0.0)


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


class LDLFactor:
    """T = L D L^T from the pivots ``diag`` and the unit-lower multipliers
    ``low``, copied into one buffer [D, L, x] with room for a right-hand
    side x, and its solve bound to them.  On the LAPACK backend (n >= 2)
    the ``dpttrs`` arguments are made once: a solve copies b into x, makes
    one ``dpttrs`` call and returns a copy.  The arguments hold raw
    addresses, which keep no array alive; the views ``diag``, ``low`` and
    ``_x`` keep the buffer alive."""

    def __init__(self, diag, low):
        n = diag.shape[0]
        if low.shape != (n - 1,):
            raise ValueError(f"factors of order {n} need {n - 1} multipliers, got shape {low.shape}")
        buf = np.empty(3 * n - 1)
        buf[:n] = diag
        buf[n : 2 * n - 1] = low
        self.diag, self.low = buf[:n], buf[n : 2 * n - 1]
        self._x = None
        if _PTTRS is not None and n >= 2:
            self._x = buf[2 * n - 1 :]
            at = buf.ctypes.data
            rows = ctypes.byref(ctypes.c_int64(n))
            self._args = (rows, ctypes.byref(_ONE), at, at + 8 * n, at + 8 * (2 * n - 1), rows, ctypes.byref(ctypes.c_int64()))

    def solve(self, b):
        """x with L D L^T x = b."""
        if b.shape != self.diag.shape:
            raise ValueError(f"factors of order {self.diag.shape[0]} need as many right-hand sides, got {b.shape}")
        COUNTS["solves"] += 1
        x = self._x
        if x is None:
            try:
                out = _solve(self.diag.tolist(), self.low.tolist(), b.tolist())
            except ZeroDivisionError:
                out = _solve(list(self.diag), list(self.low), list(b))
            return np.array(out, dtype=float)
        x[:] = b
        _PTTRS(*self._args)
        return x.copy()


def tridiag_solve(d, e, b):
    """Solve T x = b for symmetric tridiagonal T = (d, e) via LDL^T."""
    return ldl_factor(d, e).solve(b)


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
        self._ends = np.empty((w.shape[0], 2))

    def _points(self, u):
        """u at the points of every cell: the (cells, 2) matrix of cell end
        values times [1 - t; t]."""
        ends = self._ends
        ends[:, 0] = u[:-1]
        ends[:, 1] = u[1:]
        return ends @ self._basis

    def value(self, u, sign_free=False):
        """F(u) = g.v and g, where v is u at the points.  A profile with
        no sign bit set (no negative entry, no -0.0) has v >= +0 at points
        t in [0, 1], where ``abs`` and ``copysign`` are the identity:
        g = w v^{p-1} then skips both, with the same bits.  A caller that
        knows u has no sign bit set passes ``sign_free=True`` and skips
        the scan."""
        COUNTS["evaluations"] += 1
        v = self._points(u)
        if not sign_free and np.signbit(u).any():
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
