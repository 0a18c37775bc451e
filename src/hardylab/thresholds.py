"""Threshold localization for the linear pencil and the strict-inequality
report for the interpolated quotient.

The attainment threshold is reported as a bracket, never a point estimate:
the discrete eigenvalue over-estimates the continuous infimum, so a grid
can only certify "strictly below the inverse-square cap", and it does so
through the predicate mu_h(lambda) < cap - delta with delta tied to the
measured refinement gap.

A mu curve assembles the forms once and solves every lambda from cold (no
warm start: each eigensolve takes one inverse step either way), so each
entry is bit for bit the ``mu_of_lambda`` value.  The strict-inequality
report runs the minimizer with its own 800-step budget on both grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import hardy_constant, hardy_sobolev_constant
from .eigensolver import EigenResult, count_below, smallest_generalized_eigen
from .errors import DomainError, SweepRangeError
from .forms import assemble_forms, build_grid, gauss_panels
from .manifold import ModelManifold, curvature_criterion
from .minimizer import MinimizationResult, minimize_quotient

__all__ = [
    "MuCurve",
    "LambdaStarBracket",
    "TheoremReport",
    "mu_of_lambda",
    "mu_curve",
    "constant_profile_bound",
    "lambda_star_bracket",
    "strict_inequality_report",
]


def default_bc(m: ModelManifold) -> str:
    """Reflected on the full sphere (antipodal smoothness); Dirichlet else."""
    return "reflected" if m.full_sphere else "dirichlet"


@dataclass
class MuCurve:
    lambdas: np.ndarray
    mus: np.ndarray
    concentrations: np.ndarray
    M: int
    gamma: float


@dataclass
class LambdaStarBracket:
    lo: float
    hi: float
    detection_delta: float
    grid_tag: str
    mu_lo: float
    mu_hi: float
    cap: float


@dataclass
class TheoremReport:
    mu_upper: float
    sharp_constant: float
    margin: float
    error_estimate: float
    criterion_holds: bool
    lambda_negative: bool
    within_theorem_dims: bool
    verdict: str  # CONFIRMS_THEOREM or INCONCLUSIVE
    coarse: MinimizationResult  # the M-grid run
    fine: MinimizationResult  # the 2M-grid run


def _forms_for(m: ModelManifold, M: int, gamma: float, sigma: float, bc: str | None):
    bc = default_bc(m) if bc is None else bc
    grid = build_grid(m.r_max, M, gamma, bc)
    return assemble_forms(grid, m, sigma)


def mu_of_lambda(
    m: ModelManifold,
    lam: float,
    M: int = 2048,
    gamma: float = 2.0,
    bc: str | None = None,
) -> tuple[float, float, EigenResult]:
    """Discrete mu at sigma = 2 plus its concentration diagnostic."""
    forms = _forms_for(m, M, gamma, 2.0, bc)
    res = smallest_generalized_eigen(forms, lam)
    return res.mu, res.concentration, res


def mu_curve(
    m: ModelManifold,
    lambdas,
    M: int = 2048,
    gamma: float = 2.0,
    bc: str | None = None,
) -> MuCurve:
    """Sweep of the sigma = 2 pencil in increasing lambda, on forms
    assembled once."""
    lams = np.asarray(sorted(float(v) for v in lambdas), dtype=float)
    forms = _forms_for(m, M, gamma, 2.0, bc)
    mus = np.empty_like(lams)
    concs = np.empty_like(lams)
    for i, lam in enumerate(lams):
        res = smallest_generalized_eigen(forms, lam)
        mus[i] = res.mu
        concs[i] = res.concentration
    return MuCurve(lambdas=lams, mus=mus, concentrations=concs, M=M, gamma=gamma)


def constant_profile_bound(m: ModelManifold) -> float:
    """Quotient of the constant profile at the cap: the threshold must sit at
    or below lambda = -cap * Vol / int rho^{-2} dv, computed by direct
    quadrature of the warp."""
    r, wq = (q.ravel() for q in gauss_panels(np.linspace(0.0, m.r_max, 65), 64))
    nm1 = m.N - 1
    vol = float(np.dot(wq, m.warp(r) ** nm1))
    inv2 = float(np.dot(wq, m.warp_over_r(r) ** 2 * m.warp(r) ** (m.N - 3)))
    return -hardy_constant(m.N) * inv2 / vol


def lambda_star_bracket(
    m: ModelManifold,
    tol_lambda: float = 0.05,
    detection_delta: float | None = None,
    M: int = 2048,
    gamma: float = 2.0,
    bc: str | None = None,
    sweep: tuple[float, float] = (-20.0, 0.0),
) -> LambdaStarBracket:
    """Bisect the predicate mu_h(lambda) < cap - delta, tested by one
    inertia count per lambda (no eigensolve).

    The returned hi over-estimates the threshold (discrete detection only
    certifies genuinely-below-cap values); delta defaults to the measured
    refinement gap |mu_M - mu_2M| at the midpoint of the sweep.  A sweep
    that misses the threshold widens: downward at most three times, upward
    at most six times by doubling steps (0, 1, 3, 7, 15, 31, 63 from the
    default top).
    """
    if not (math.isfinite(tol_lambda) and tol_lambda > 0.0):
        raise DomainError(f"tol_lambda must be finite and positive, got {tol_lambda!r}")
    if detection_delta is not None and not (math.isfinite(detection_delta) and detection_delta > 0.0):
        raise DomainError(f"detection_delta must be finite and positive, got {detection_delta!r}")
    cap = hardy_constant(m.N)
    forms = _forms_for(m, M, gamma, 2.0, bc)

    def bisect(delta):
        lo, hi = float(sweep[0]), float(sweep[1])

        def below(lam):
            return count_below(forms, lam, cap - delta) >= 1

        widen = 0
        while below(lo):
            step = max(abs(lo), hi - lo)
            hi = lo
            lo -= step
            widen += 1
            if widen > 3:
                raise SweepRangeError(
                    "predicate already below-cap at the sweep bottom; widen the sweep downward"
                )
        step = max(1.0, 0.05 * (hi - lo))
        widen = 0
        while not below(hi):
            lo = hi
            hi += step
            step *= 2.0
            widen += 1
            if widen > 6:
                raise SweepRangeError(
                    "predicate never detected below-cap over the sweep; widen the sweep upward"
                )
        while hi - lo > tol_lambda:
            mid = 0.5 * (lo + hi)
            if below(mid):
                hi = mid
            else:
                lo = mid
        return lo, hi

    if detection_delta is None:
        # provisional pass with the gap at the sweep midpoint, then re-bisect
        # with the gap measured at the bracket midpoint
        forms2 = _forms_for(m, 2 * M, gamma, 2.0, bc)

        def gap_at(lam):
            return abs(
                smallest_generalized_eigen(forms, lam).mu
                - smallest_generalized_eigen(forms2, lam).mu
            )

        provisional = max(gap_at(0.5 * (sweep[0] + sweep[1])), 1e-9)
        lo, hi = bisect(provisional)
        detection_delta = max(gap_at(0.5 * (lo + hi)), 1e-9)
    lo, hi = bisect(detection_delta)
    mu_lo = smallest_generalized_eigen(forms, lo).mu
    mu_hi = smallest_generalized_eigen(forms, hi).mu
    return LambdaStarBracket(
        lo=lo,
        hi=hi,
        detection_delta=float(detection_delta),
        grid_tag=f"M={M},gamma={gamma}",
        mu_lo=mu_lo,
        mu_hi=mu_hi,
        cap=cap,
    )


def strict_inequality_report(
    m: ModelManifold,
    lam: float,
    sigma: float,
    M: int = 1024,
    gamma: float = 2.0,
    bc: str | None = None,
) -> TheoremReport:
    """Compare the minimized quotient against the sharp flat constant.

    Verdict CONFIRMS_THEOREM requires the curvature criterion to hold and
    the margin to exceed five times the Richardson (two-grid) error
    estimate; anything weaker is INCONCLUSIVE.
    """
    s_best = hardy_sobolev_constant(m.N, sigma)
    coarse = minimize_quotient(_forms_for(m, M, gamma, sigma, bc), lam)
    fine = minimize_quotient(_forms_for(m, 2 * M, gamma, sigma, bc), lam)
    err = abs(coarse.mu_upper - fine.mu_upper)
    mu_upper = min(coarse.mu_upper, fine.mu_upper)
    margin = s_best - mu_upper
    crit = curvature_criterion(m, lam)
    within_dims = m.N >= 4
    verdict = (
        "CONFIRMS_THEOREM"
        if crit and within_dims and margin > 5.0 * err and margin > 0.0
        else "INCONCLUSIVE"
    )
    return TheoremReport(
        mu_upper=mu_upper,
        sharp_constant=s_best,
        margin=margin,
        error_estimate=err,
        criterion_holds=crit,
        lambda_negative=lam < 0.0,
        within_theorem_dims=within_dims,
        verdict=verdict,
        coarse=coarse,
        fine=fine,
    )
