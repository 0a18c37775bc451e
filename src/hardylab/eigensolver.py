"""Smallest generalized eigenvalue of the pencil (K - lambda*Mass, W).

Bisection on the tridiagonal inertia count localizes the eigenvalue to
absolute 1e-10 regardless of the indefiniteness of K - lambda*Mass; the
eigenvector follows by inverse iteration seeded from the definite side of
the final bracket (so the shifted matrix is positive definite and the
unpivoted tridiagonal solve is stable).  A shifted subspace iteration is
kept as a fallback for the rare stagnation case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DomainError
from .forms import QuadraticForms, tri_matvec, tri_quadform

__all__ = ["EigenResult", "count_below", "inertia_count", "smallest_generalized_eigen", "concentration_fraction"]


@dataclass
class EigenResult:
    mu: float
    profile: np.ndarray  # full nodal vector (boundary value included)
    iterations: int
    residual: float
    concentration: float
    method: str  # "inverse-iteration" or "subspace-fallback"
    fallback_residual: float | None = None


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


def count_below(forms: QuadraticForms, lam: float, shift: float, denominator: str = "w2") -> int:
    """Number of eigenvalues of the pencil (K - lambda*Mass, W) strictly
    below ``shift``: one inertia count, no eigensolve."""
    d, e, wd, we = _pencil_arrays(forms, lam, denominator)
    return inertia_count(d, e, wd, shift, we)


def smallest_generalized_eigen(
    forms: QuadraticForms,
    lam: float,
    denominator: str = "w2",
    tol_abs: float = 1e-10,
    warm: np.ndarray | None = None,
) -> EigenResult:
    """Least eigenvalue and eigenvector of (K - lambda*Mass) u = mu W u.

    ``denominator="w2"`` is the singular-weight pencil; ``"mass"`` swaps in
    the plain mass form (a sanity configuration with classical closed-form
    eigenvalues).  The eigenvalue may be negative.  The returned profile is
    W-normalized and carries the boundary node.
    """
    d, e, wd, we = _pencil_arrays(forms, lam, denominator)
    n = d.shape[0]
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

    while hi - lo > tol_abs:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # double-precision resolution reached
            break
        if inertia_count(d, e, wd, mid, we) >= 1:
            hi = mid
        else:
            lo = mid
        it += 1

    mu = 0.5 * (lo + hi)

    def w_apply(x):
        return wd * x if we is None else tri_matvec(wd, we, x)

    def w_norm(x):
        return float(np.dot(x, w_apply(x))) ** 0.5

    def residual_of(x, rho):
        r = tri_matvec(d, e, x) - rho * w_apply(x)
        denom = (scale + abs(rho) * float(np.max(np.abs(wd)))) * float(np.linalg.norm(x))
        return float(np.linalg.norm(r)) / max(denom, 1e-300)

    # inverse iteration from the definite side of the bracket
    shift = lo - max(10.0 * tol_abs, 1e-14 * max(scale, 1.0))
    x = None
    if warm is not None and warm.shape[0] == n:
        x = warm.astype(float).copy()
    if x is None or not np.any(x):
        x = np.ones(n)
    x /= w_norm(x)
    rho = tri_quadform(d, e, x)
    res = residual_of(x, rho)
    method = "inverse-iteration"
    inv_it = 0
    for inv_it in range(1, 61):
        y = _kernels.tridiag_solve(d - shift * wd, e if we is None else e - shift * we, w_apply(x))
        if not np.all(np.isfinite(y)):
            break
        x = y / w_norm(y)
        rho = tri_quadform(d, e, x)
        res = residual_of(x, rho)
        if res <= 1e-9:
            break

    fallback_residual = None
    if res > 1e-9 or not np.all(np.isfinite(x)):
        fallback_residual = res
        method = "subspace-fallback"
        rng = np.random.default_rng(0)
        block = rng.standard_normal((n, 3))
        block[:, 0] = x if np.all(np.isfinite(x)) else 1.0
        for _ in range(80):
            for j in range(3):
                block[:, j] = _kernels.tridiag_solve(
                    d - shift * wd, e if we is None else e - shift * we, w_apply(block[:, j])
                )
            # W-orthonormalize and Rayleigh-Ritz in the pencil metric
            for j in range(3):
                for k in range(j):
                    block[:, j] -= np.dot(block[:, j], w_apply(block[:, k])) * block[:, k]
                block[:, j] /= w_norm(block[:, j])
            a = np.empty((3, 3))
            for j in range(3):
                tj = tri_matvec(d, e, block[:, j])
                for k in range(3):
                    a[j, k] = np.dot(block[:, k], tj)
            evals, evecs = np.linalg.eigh(0.5 * (a + a.T))
            x = block @ evecs[:, 0]
            x /= w_norm(x)
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
        method=method,
        fallback_residual=fallback_residual,
    )


def concentration_fraction(forms: QuadraticForms, u: np.ndarray, frac: float = 0.01) -> float:
    """Share of the singular-weight norm carried inside radius frac*r_max.

    Approaches 1 under refinement when minimizing sequences escape to the
    pole (non-attainment signature) and stabilizes when a genuine minimizer
    exists.
    """
    u = np.asarray(u, dtype=float)
    wu = forms.w2 * u * u
    total = float(wu.sum())
    if total <= 0.0:
        return 0.0
    inner = float(wu[forms.grid.nodes <= frac * forms.grid.r_max].sum())
    return inner / total
