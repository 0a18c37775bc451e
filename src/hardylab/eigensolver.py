"""Smallest generalized eigenvalue of the pencil (K - lambda*Mass, W).

Every pencil in the package goes one way: ``_pencil_arrays`` slices it to
the free nodes, ``inertia_count`` counts it, ``_kernels.ldl_factor`` factors
it once and ``_kernels.ldl_solve`` solves against the factors.  Counts,
factors and solves run in LAPACK ``dpttrf``/``dpttrs`` when numpy bundles
them (``_kernels.BACKEND``), else in Python-float recurrences; the factors
and solves of both are the same bits.

Bisection on the inertia count localizes the eigenvalue to absolute
_TOL_ABS = 1e-10 regardless of the indefiniteness of K - lambda*Mass; the
eigenvector follows by inverse iteration from the constant vector, shifted
to the definite side of the final bracket (so the shifted matrix is positive
definite, its unpivoted LDL^T factor is stable, and it is factored once).
There is no other path: if inverse iteration stops above its 1e-9 target,
the returned ``residual`` says so.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DomainError
from .forms import QuadraticForms, tri_matvec, tri_quadform

__all__ = ["EigenResult", "count_below", "inertia_count", "smallest_generalized_eigen", "concentration_fraction"]

_TOL_ABS = 1e-10  # absolute width at which bisection stops
_CORE = 0.01  # concentration diagnostics: the core is radius _CORE * r_max


@dataclass
class EigenResult:
    mu: float
    profile: np.ndarray  # full nodal vector (boundary value included)
    iterations: int
    residual: float
    concentration: float
    method: str  # always "inverse-iteration"; perfbench/tracing.py reads it


def inertia_count(
    d: np.ndarray, e: np.ndarray, w: np.ndarray, shift: float, w_off: np.ndarray | None = None
) -> int:
    """Number of generalized eigenvalues of (T, W) strictly below ``shift``.

    T is symmetric tridiagonal (diagonal d, off-diagonal e).  W is the
    positive diagonal ``w``, or the positive definite tridiagonal with
    off-diagonal ``w_off``.  The count is the number of negative pivots of
    T - shift*W (Sylvester's law of inertia).  On an exact zero pivot the
    shift is perturbed by one ulp-scale step and the count retried.
    """
    if np.any(w <= 0.0):
        raise DomainError("weight diagonal must be positive")
    shift = float(shift)
    scale = None
    for attempt in range(4):
        if w_off is None:
            count = _kernels.negcount(d - shift * w, e)
        else:
            count = _kernels.negcount(d - shift * w, e - shift * w_off)
        if count >= 0:
            return count
        if scale is None:
            scale = float(np.max(np.abs(d)) + np.max(np.abs(e), initial=0.0) + abs(shift))
        shift += (attempt + 1) * 1e-15 * max(scale, 1.0)
    raise RuntimeError("inertia count kept hitting exact singularities")


def _pencil_arrays(forms: QuadraticForms, lam: float, denominator: str):
    sl = forms.dof
    d = forms.kd[sl] - lam * forms.md[sl]
    n = d.shape[0]
    e = (forms.ke - lam * forms.me)[: n - 1]
    if denominator == "w2":
        wd = forms.w2[sl]
        we = None
    elif denominator == "mass":
        wd = forms.md[sl]
        we = forms.me[: n - 1]
    else:
        raise DomainError(f"unknown denominator {denominator!r}")
    return d, e, wd, we


def count_below(forms: QuadraticForms, lam: float, shift: float) -> int:
    """Number of eigenvalues of the pencil (K - lambda*Mass, W) strictly
    below ``shift``: one inertia count, no eigensolve."""
    d, e, wd, we = _pencil_arrays(forms, lam, "w2")
    return inertia_count(d, e, wd, shift, we)


def smallest_generalized_eigen(forms: QuadraticForms, lam: float, denominator: str = "w2") -> EigenResult:
    """Least eigenvalue and eigenvector of (K - lambda*Mass) u = mu W u.

    ``denominator="w2"`` is the singular-weight pencil; ``"mass"`` swaps in
    the plain mass form (a sanity configuration with classical closed-form
    eigenvalues).  The eigenvalue may be negative.  The returned profile is
    W-normalized and carries the boundary node.
    """
    d, e, wd, we = _pencil_arrays(forms, lam, denominator)
    scale = float(np.max(np.abs(d)) + np.max(np.abs(e), initial=0.0))

    # upper start: Rayleigh quotient of every basis vector
    hi = float(np.min(d / wd)) + 1e-12 * max(scale, 1.0)
    lo = hi - max(1.0, 0.1 * abs(hi))
    it = 0
    while inertia_count(d, e, wd, lo, we) > 0:
        lo -= 2.0 * (hi - lo)
        it += 1
        if it > 200:
            raise RuntimeError("failed to bracket the smallest eigenvalue from below")
    while inertia_count(d, e, wd, hi, we) < 1:
        hi += max(1.0, hi - lo)
        it += 1
        if it > 400:
            raise RuntimeError("failed to bracket the smallest eigenvalue from above")

    while hi - lo > _TOL_ABS:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # double-precision resolution reached
            break
        if inertia_count(d, e, wd, mid, we) >= 1:
            hi = mid
        else:
            lo = mid
        it += 1

    def w_apply(x):
        return wd * x if we is None else tri_matvec(wd, we, x)

    def w_norm(x):
        return float(np.dot(x, w_apply(x))) ** 0.5

    def residual_of(x, rho):
        r = tri_matvec(d, e, x) - rho * w_apply(x)
        denom = (scale + abs(rho) * float(np.max(np.abs(wd)))) * float(np.linalg.norm(x))
        return float(np.linalg.norm(r)) / max(denom, 1e-300)

    # inverse iteration from the definite side of the bracket
    shift = lo - max(10.0 * _TOL_ABS, 1e-14 * max(scale, 1.0))
    factor = _kernels.ldl_factor(d - shift * wd, e if we is None else e - shift * we)
    x = np.ones(d.shape[0])
    x /= w_norm(x)
    rho = tri_quadform(d, e, x)
    res = residual_of(x, rho)
    inv_it = 0
    for inv_it in range(1, 61):
        y = _kernels.ldl_solve(*factor, w_apply(x))
        if not np.all(np.isfinite(y)):
            break
        x = y / w_norm(y)
        rho = tri_quadform(d, e, x)
        res = residual_of(x, rho)
        if res <= 1e-9:
            break

    if x[np.argmax(np.abs(x))] < 0.0:
        x = -x
    full = forms.zero_profile()
    full[forms.dof] = x
    conc = concentration_fraction(forms, full)
    return EigenResult(
        mu=float(rho),
        profile=full,
        iterations=it + inv_it,
        residual=res,
        concentration=conc,
        method="inverse-iteration",
    )


def concentration_fraction(forms: QuadraticForms, u: np.ndarray) -> float:
    """Share of the singular-weight norm carried inside radius _CORE*r_max.

    Approaches 1 under refinement when minimizing sequences escape to the
    pole (non-attainment signature) and stabilizes when a genuine minimizer
    exists.
    """
    u = np.asarray(u, dtype=float)
    wu = forms.w2 * u * u
    total = float(wu.sum())
    if total <= 0.0:
        return 0.0
    inner = float(wu[forms.grid.nodes <= _CORE * forms.grid.r_max].sum())
    return inner / total
