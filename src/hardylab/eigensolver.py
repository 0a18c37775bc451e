"""Smallest generalized eigenvalue of the pencil (K - lambda*Mass, W).

Every pencil in the package goes one way: ``QuadraticForms.free``
restricts it to the free nodes and its ``_kernels.PencilWorkspace`` tests,
factors and solves it.  No caller needs a count: each bisection step only
asks whether T - s*W is positive definite, one in-place shift and one
``dpttrf`` call (``_kernels.BACKEND``).  The eigensolve takes one pencil
shape, a tridiagonal T and a positive diagonal W:
``smallest_generalized_eigen`` builds (K - lambda*Mass, W) and
``hardy_refined`` the improved-inequality pencil (K - cap*W, W_log).  It
builds the pencil's workspace once, and takes both of its factors from it:
the estimate's at the definite end of the coarse bracket and inverse
iteration's at its shift.  ``_bisect`` is the one bisection loop, shared
with the lambda-star bracket.  ``inertia_count``, the full Sturm count with
its zero-pivot retry, stays public for the tests and for library users.

Bisection on the definiteness test localizes the eigenvalue to absolute
_TOL_ABS = 1e-10 regardless of the indefiniteness of K - lambda*Mass.  The
floating-point test is monotone in s: with a diagonal W each step of the
pivot recurrence (s*w, d - s*w, e/p and d' - (e/p)*e with e fixed) is a
monotone rounding, so by induction every pivot is non-increasing in s, and
definite at s means definite at every shift below s (both backends make
these operations).  So once one shift tests definite and a higher one
does not, every midpoint outside the two is answered.  The eigensolve
bisects to _COARSE = 1e-3, estimates the eigenvalue by _ESTIMATE_STEPS
inverse steps from the definite end, tests the probes estimate - _PROBE and
estimate + _PROBE and finishes the same bisection, testing only the
midpoints between the tightest answers: the same halvings, the same bracket
and the same bits, in about 15 tests instead of about 36.  A probe on the
wrong side or a non-finite estimate costs tests, never bits.  A
neighbouring solve's profile (``trial``: the previous lambda of a mu
curve, or a coarser grid's profile prolonged) seeds the coarse bisection in
the same way: its Rayleigh quotient g in the new pencil bounds the least
eigenvalue from above, and the shifts g - t, t in _TRIAL_STEPS, go to
``_bisect`` as probes, so a close trial answers most coarse tests at once
(382 -> 284 tests in a seed-0 ``pencil-threshold`` pass) and any trial
returns the unseeded bits.  The eigenvector follows by inverse iteration
from the constant vector, shifted to the definite side of the final bracket
(so the shifted matrix is positive definite, its unpivoted LDL^T factor is
stable, and it is factored once).
There is no other path: if inverse iteration stops above its 1e-9 target,
the returned ``residual`` says so.  Its 2-norms and the iterates' W-norms
scale the vector by an exact power of two first, so no square overflows or
underflows, and write the scaled vector into one scratch pair made per
eigensolve.  The whole eigensolve runs under one ``np.errstate`` that
ignores overflow, invalid operations and division by zero, since every
value that can leave the double range is read: an eigensolve refuses a
weight whose least entry is not positive, and a pencil with a non-finite
entry (read off the scale max|d| + max|e| of its upper start), before it
tests, a bracket end s whose s*W leaves the double range before that
test, and, after the tests, an inverse iteration with no finite iterate or
a mu or residual that still leaves the double range.  A non-finite
estimate only moves the probes.
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
_COARSE = 1e-3  # bracket width at which the eigenvalue is estimated
_ESTIMATE_STEPS = 3  # inverse steps behind the estimate
_PROBE = 2e-11  # the probes lie this far below and above the estimate
_TRIAL_STEPS = (0.0, 1e-3, 1e-2, 1e-1)  # a trial's probes lie this far below its quotient
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
        count = _kernels.negcount(d - shift * w, e if w_off is None else e - shift * w_off)
        if count >= 0:
            return count
        if scale is None:
            scale = float(np.max(np.abs(d)) + np.max(np.abs(e), initial=0.0) + abs(shift))
        shift += (attempt + 1) * 1e-15 * max(scale, 1.0)
    raise RuntimeError("inertia count kept hitting exact singularities")


def _bisect(definite, lo, hi, tol, probes=()):
    """Halve [lo, hi] (definite at lo, not at hi) to width tol or adjacent
    doubles: (lo, hi, halvings).  The test must be monotone in s (definite
    at s, definite below s).  Each probe strictly inside the tightest
    answered ends is tested first; a midpoint is then tested only if it
    lies strictly between the highest shift answered definite and the
    lowest answered not, since every other answer is implied.  The halvings,
    and so the result, are those without probes; a probe on the wrong side
    of the eigenvalue, outside the bracket or NaN costs tests only."""
    a, b = lo, hi  # the highest shift answered definite, the lowest answered not
    for p in probes:
        if a < p < b:
            if definite(p):
                a = p
            else:
                b = p
    steps = 0
    while hi - lo > tol:
        mid = 0.5 * lo + 0.5 * hi  # 0.5 * (lo + hi), but lo + hi may overflow
        if mid in (lo, hi):  # double-precision resolution reached
            break
        if mid <= a:
            lo = mid
        elif mid >= b:
            hi = mid
        elif definite(mid):
            lo = a = mid
        else:
            hi = b = mid
        steps += 1
    return lo, hi, steps


def _norm(x, scratch, w=None) -> float:
    """sqrt(x . w x), the 2-norm without ``w``, taken of x * 2**-k with
    max|x| in [2**(k-1), 2**k): exact, and no square over- or underflows.
    The scaled x and w times it go to the two vectors of ``scratch``."""
    scaled, weighted = scratch
    k = math.frexp(np.abs(x, out=scaled).max())[1]
    np.ldexp(x, -k, out=scaled)
    weighted = scaled if w is None else np.multiply(w, scaled, out=weighted)
    return math.ldexp(math.sqrt(float(scaled.dot(weighted))), k)


def _estimate(factor, w, shift) -> float:
    """The eigenvalue estimate shift + (y . W x) / (y . W y) of the last of
    _ESTIMATE_STEPS inverse steps y = (T - shift*W)^-1 W x from the
    constant vector, each iterate scaled by its max; ``factor`` is T -
    shift*W's.  The energy of y in T - shift*W is y . W x, so nothing
    cancels.  A non-finite iterate gives NaN or inf."""
    x = np.ones(w.shape[0])
    for _ in range(_ESTIMATE_STEPS):
        wx = w * x
        x = factor.solve(wx)
        top = np.abs(x).max()
        x /= top
    return shift + float(x.dot(wx)) / (top * float(x.dot(w * x)))


def _trial_probes(d, e, w, x) -> tuple:
    """The shifts g - t, t in _TRIAL_STEPS, where g is the Rayleigh
    quotient of ``x`` in the pencil (T, W), an upper bound of its least
    eigenvalue; none without a trial.  A zero or non-finite trial gives
    NaN probes, which are never tested."""
    if x is None:
        return ()
    g = float(tri_quadform(d, e, x) / np.dot(w, x * x))  # numpy's division: 0/0 is NaN
    return tuple(g - t for t in _TRIAL_STEPS)


def _check_weight(w: np.ndarray) -> None:
    if not w.min() > 0.0:  # NaN fails too
        raise DomainError("weight diagonal must be positive")


def _out_of_range(lam: float) -> DomainError:
    return DomainError(f"the eigensolve leaves the double range at lambda = {float(lam)!r}")


def _check_pencil(d: np.ndarray, e: np.ndarray, lam: float) -> None:
    """Refuse K - lam*Mass (diagonal d, off-diagonal e) with a non-finite
    entry: a finite but huge lam overflows it."""
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
        raise DomainError(f"K - lambda*Mass overflows at lambda = {float(lam)!r}")


def smallest_generalized_eigen(forms: QuadraticForms, lam: float, trial: np.ndarray | None = None) -> EigenResult:
    """Least eigenvalue and eigenvector of (K - lambda*Mass) u = mu W u.

    W is the lumped sigma = 2 weight.  The eigenvalue may be negative.  The
    returned profile is W-normalized and carries the boundary node.  A
    ``trial`` profile on the forms' nodes (a neighbouring solve's) seeds
    the coarse bisection with probes at and below its Rayleigh quotient;
    it saves tests and moves no bit.
    """
    with np.errstate(over="ignore"):  # _check_pencil refuses what overflows
        d, e = forms.free(forms.kd - lam * forms.md, forms.ke - lam * forms.me)
    x = None if trial is None else forms.check_profile(trial)[forms.dof]
    return _eigen(forms, d, e, forms.w2[forms.dof], lam, x)


def _eigen(forms: QuadraticForms, d, e, wd, lam: float, trial=None) -> EigenResult:
    """The eigensolve of the pencil (T, W) on the free nodes of ``forms``,
    T = (d, e) and W the diagonal ``wd``; ``lam`` names it in refusals.
    ``trial``, a vector on the free nodes, seeds the coarse bisection."""
    # every overflow below is read: by a refusal, or as a probe that costs tests only
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        _check_weight(wd)
        wd_max = float(wd.max())
        # upper start: Rayleigh quotient of every basis vector
        scale = float(abs(d).max() + abs(e).max(initial=0.0))
        if not math.isfinite(scale):  # a non-finite entry, or the sum overflows
            _check_pencil(d, e, lam)
        hi = float((d / wd).min()) + 1e-12 * max(scale, 1.0)
        if not math.isfinite(hi):  # d / wd or the scale overflows
            raise _out_of_range(lam)
        lo = hi - max(1.0, 0.1 * abs(hi))
        pencil = _kernels.PencilWorkspace(d, e, wd)

        def definite(s):
            # a shift s whose s*W leaves the double range (only a bracket end
            # can) is refused, not tested
            if not abs(s) * wd_max < math.inf:
                raise _out_of_range(lam)
            return pencil(s)

        it = 0
        while not definite(lo):
            lo -= 2.0 * (hi - lo)
            it += 1
            if it > 200:
                raise RuntimeError("failed to bracket the smallest eigenvalue from below")
        while definite(hi):
            hi += max(1.0, hi - lo)
            it += 1
            if it > 400:
                raise RuntimeError("failed to bracket the smallest eigenvalue from above")

        # one bisection in two calls: to _COARSE, with the trial's probes
        # when there is one, then on to _TOL_ABS with probes either side of
        # an estimate taken from the definite end, which tested definite,
        # so its factor exists
        lo, hi, steps = _bisect(definite, lo, hi, _COARSE, _trial_probes(d, e, wd, trial))
        estimate = _estimate(pencil.factor(lo), wd, lo)
        lo, hi, fine_steps = _bisect(definite, lo, hi, _TOL_ABS, (estimate - _PROBE, estimate + _PROBE))
        it += steps + fine_steps

        scratch = np.empty(d.shape[0]), np.empty(d.shape[0])

        def residual_of(x, rho):
            r = tri_matvec(d, e, x)
            wx = np.multiply(wd, x, out=scratch[1])
            wx *= rho
            r -= wx  # K x - rho * (W x)
            denom = (scale + abs(rho) * wd_max) * _norm(x, scratch)
            # an infinite denominator: the pencil's scale leaves the double range
            return _norm(r, scratch) / max(denom, 1e-300) if denom < math.inf else math.inf

        # inverse iteration from the definite side of the bracket; without a
        # finite iterate rho and res stay NaN and the eigensolve is refused
        shift = lo - max(10.0 * _TOL_ABS, 1e-14 * max(scale, 1.0))
        factor = pencil.factor(shift)
        rho = res = math.nan
        x = np.ones(d.shape[0])
        x /= _norm(x, scratch, wd)
        for inv_it in range(1, 61):
            y = factor.solve(np.multiply(wd, x, out=scratch[1]))
            if not np.isfinite(y).all():
                break
            x = y / _norm(y, scratch, wd)  # out of the factor's buffer, which the next solve overwrites
            rho = tri_quadform(d, e, x)
            res = residual_of(x, rho)
            if res <= 1e-9:
                break

    if not (np.isfinite(rho) and np.isfinite(res)):
        raise _out_of_range(lam)
    if x[np.abs(x, out=scratch[0]).argmax()] < 0.0:
        np.negative(x, out=x)
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
    wu = forms.w2 * u
    wu *= u
    total = float(wu.sum())
    if total <= 0.0:
        return 0.0
    # the grid's nodes increase, so the core is a prefix
    inner = float(wu[: np.searchsorted(forms.grid.nodes, _CORE * forms.grid.r_max, "right")].sum())
    return inner / total
