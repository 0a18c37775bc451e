"""Smallest generalized eigenvalue of the pencil (K - lambda*Mass, W).

Every pencil in the package goes one way: it is sliced to the free nodes
(``_pencil_arrays``; the lambda-star pencil in ``thresholds``),
``_kernels.definite_test`` asks whether it is positive definite past a
shift, ``_kernels.ldl_factor`` factors it once and ``_kernels.ldl_solve``
solves against the factors.  No caller needs a count: each bisection step
only asks whether T - s*W is positive definite, one in-place shift and one
``dpttrf`` call (``_kernels.BACKEND``).  An eigensolve checks the weight
and builds the pencil's test once, then makes its ~36 bracket and
bisection tests; ``_bisect`` is the one bisection loop, shared with the
lambda-star bracket.  ``inertia_count``, the full Sturm count with its
zero-pivot retry, stays public for the tests and for library users.

Bisection on the definiteness test localizes the eigenvalue to absolute
_TOL_ABS = 1e-10 regardless of the indefiniteness of K - lambda*Mass; the
eigenvector follows by inverse iteration from the constant vector, shifted
to the definite side of the final bracket (so the shifted matrix is positive
definite, its unpivoted LDL^T factor is stable, and it is factored once).
There is no other path: if inverse iteration stops above its 1e-9 target,
the returned ``residual`` says so.  Its 2-norms and the iterates' W-norms
scale the vector by an exact power of two first, so no square overflows or
underflows.  An eigensolve refuses a pencil with a non-finite entry before
it tests, a bracket end s whose s*W leaves the double range before that
test, and, after the tests, an inverse iteration with no finite iterate or
a mu or residual that still leaves the double range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DomainError
from .forms import QuadraticForms, tri_matvec, tri_quadform

__all__ = ["EigenResult", "inertia_count", "smallest_generalized_eigen", "concentration_fraction"]

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
    _check_weight(w)
    shift = float(shift)
    scale = None
    for attempt in range(4):
        count = _kernels.negcount(*_shifted(d, e, w, shift, w_off))
        if count >= 0:
            return count
        if scale is None:
            scale = float(np.max(np.abs(d)) + np.max(np.abs(e), initial=0.0) + abs(shift))
        shift += (attempt + 1) * 1e-15 * max(scale, 1.0)
    raise RuntimeError("inertia count kept hitting exact singularities")


def _shifted(d, e, w, shift, w_off):
    """Diagonal and off-diagonal of T - shift*W."""
    return d - shift * w, (e if w_off is None else e - shift * w_off)


def _bisect(definite, lo, hi, tol):
    """Halve [lo, hi] (definite at lo, not at hi) to width tol or adjacent doubles: (lo, hi, tests)."""
    steps = 0
    while hi - lo > tol:
        mid = 0.5 * lo + 0.5 * hi  # 0.5 * (lo + hi), but lo + hi may overflow
        if mid in (lo, hi):  # double-precision resolution reached
            break
        if definite(mid):
            lo = mid
        else:
            hi = mid
        steps += 1
    return lo, hi, steps


def _norm(x, apply=None) -> float:
    """sqrt(x . apply(x)), the 2-norm without ``apply``, taken of x * 2**-k
    with max|x| in [2**(k-1), 2**k): exact, and no square over- or underflows."""
    k = int(np.frexp(np.max(np.abs(x)))[1])
    x = np.ldexp(x, -k)
    return math.ldexp(math.sqrt(float(np.dot(x, x if apply is None else apply(x)))), k)


def _check_weight(w: np.ndarray) -> None:
    if not np.all(w > 0.0):  # NaN fails too
        raise DomainError("weight diagonal must be positive")


def _out_of_range(lam: float) -> DomainError:
    return DomainError(f"the eigensolve leaves the double range at lambda = {float(lam)!r}")


def _check_pencil(d: np.ndarray, e: np.ndarray, lam: float) -> None:
    """Refuse K - lam*Mass (diagonal d, off-diagonal e) with a non-finite
    entry: a finite but huge lam overflows it."""
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
        raise DomainError(f"K - lambda*Mass overflows at lambda = {float(lam)!r}")


def _pencil_arrays(forms: QuadraticForms, lam: float, denominator: str):
    sl = forms.dof
    with np.errstate(over="ignore"):  # _check_pencil refuses what overflows
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


def smallest_generalized_eigen(forms: QuadraticForms, lam: float, denominator: str = "w2") -> EigenResult:
    """Least eigenvalue and eigenvector of (K - lambda*Mass) u = mu W u.

    ``denominator="w2"`` is the singular-weight pencil; ``"mass"`` swaps in
    the plain mass form (a sanity configuration with classical closed-form
    eigenvalues).  The eigenvalue may be negative.  The returned profile is
    W-normalized and carries the boundary node.
    """
    d, e, wd, we = _pencil_arrays(forms, lam, denominator)
    _check_weight(wd)
    _check_pencil(d, e, lam)
    # upper start: Rayleigh quotient of every basis vector
    with np.errstate(over="ignore"):  # checked next
        scale = float(np.max(np.abs(d)) + np.max(np.abs(e), initial=0.0))
        hi = float(np.min(d / wd)) + 1e-12 * max(scale, 1.0)
    if not math.isfinite(hi):  # d / wd or the scale overflows
        raise _out_of_range(lam)
    lo = hi - max(1.0, 0.1 * abs(hi))
    definite = _kernels.definite_test(d, e, wd, we)
    # a bracket end s whose s*W leaves the double range is refused, not tested
    w_max = float(np.max(wd)) if we is None else max(float(np.max(wd)), float(np.max(np.abs(we))))

    def test(s):
        if not abs(s) * w_max < math.inf:
            raise _out_of_range(lam)
        return definite(s)

    it = 0
    while not test(lo):
        lo -= 2.0 * (hi - lo)
        it += 1
        if it > 200:
            raise RuntimeError("failed to bracket the smallest eigenvalue from below")
    while test(hi):
        hi += max(1.0, hi - lo)
        it += 1
        if it > 400:
            raise RuntimeError("failed to bracket the smallest eigenvalue from above")

    lo, hi, steps = _bisect(definite, lo, hi, _TOL_ABS)
    it += steps

    def w_apply(x):
        return wd * x if we is None else tri_matvec(wd, we, x)

    def residual_of(x, rho):
        r = tri_matvec(d, e, x) - rho * w_apply(x)
        denom = (scale + abs(rho) * float(np.max(np.abs(wd)))) * _norm(x)
        # an infinite denominator: the pencil's scale leaves the double range
        return _norm(r) / max(denom, 1e-300) if denom < math.inf else math.inf

    # inverse iteration from the definite side of the bracket; without a
    # finite iterate rho and res stay NaN and the eigensolve is refused
    shift = lo - max(10.0 * _TOL_ABS, 1e-14 * max(scale, 1.0))
    factor = _kernels.ldl_factor(*_shifted(d, e, wd, shift, we))
    rho = res = math.nan
    with np.errstate(over="ignore", invalid="ignore"):  # rho and res are checked next
        x = np.ones(d.shape[0])
        x /= _norm(x, w_apply)
        for inv_it in range(1, 61):
            y = _kernels.ldl_solve(*factor, w_apply(x))
            if not np.all(np.isfinite(y)):
                break
            x = y / _norm(y, w_apply)
            rho = tri_quadform(d, e, x)
            res = residual_of(x, rho)
            if res <= 1e-9:
                break

    if not (np.isfinite(rho) and np.isfinite(res)):
        raise _out_of_range(lam)
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
