"""Threshold localization for the linear pencil and the strict-inequality
report for the interpolated quotient.

The attainment threshold is reported as a bracket, never a point estimate:
the discrete eigenvalue over-estimates the continuous infimum, so a grid
can only certify "strictly below the inverse-square cap", and it does so
through the predicate mu_h(lambda) < cap - delta with delta tied to the
measured refinement gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import hardy_constant, hardy_sobolev_constant
from .eigensolver import EigenResult, count_below, smallest_generalized_eigen
from .errors import DomainError, SweepRangeError
from .forms import assemble_forms, build_grid
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
    manifold_kind: str
    N: int
    lam: float
    sigma: float
    mu_upper: float
    sharp_constant: float
    margin: float
    error_estimate: float
    criterion_holds: bool
    lambda_negative: bool
    within_theorem_dims: bool
    verdict: str  # CONFIRMS_THEOREM or INCONCLUSIVE
    init_tag: str
    concentration: float
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
    warm: np.ndarray | None = None,
) -> tuple[float, float, EigenResult]:
    """Discrete mu at sigma = 2 plus its concentration diagnostic."""
    forms = _forms_for(m, M, gamma, 2.0, bc)
    res = smallest_generalized_eigen(forms, lam, warm=warm)
    return res.mu, res.concentration, res


def mu_curve(
    m: ModelManifold,
    lambdas,
    M: int = 2048,
    gamma: float = 2.0,
    bc: str | None = None,
) -> MuCurve:
    """Sweep of the sigma = 2 pencil; warm-started in increasing lambda."""
    lams = np.asarray(sorted(float(v) for v in lambdas), dtype=float)
    forms = _forms_for(m, M, gamma, 2.0, bc)
    mus = np.empty_like(lams)
    concs = np.empty_like(lams)
    warm = None
    for i, lam in enumerate(lams):
        res = smallest_generalized_eigen(forms, lam, warm=warm)
        mus[i] = res.mu
        concs[i] = res.concentration
        warm = res.profile[forms.dof]
    return MuCurve(lambdas=lams, mus=mus, concentrations=concs, M=M, gamma=gamma)


def constant_profile_bound(m: ModelManifold) -> float:
    """Quotient of the constant profile at the cap: the threshold must sit at
    or below lambda = -cap * Vol / int rho^{-2} dv, computed by direct
    quadrature of the warp."""
    x, w = np.polynomial.legendre.leggauss(64)
    panels = np.linspace(0.0, m.r_max, 65)
    a, b = panels[:-1], panels[1:]
    half = 0.5 * (b - a)
    r = (0.5 * (a + b)[:, None] + half[:, None] * x[None, :]).ravel()
    wq = (half[:, None] * w[None, :]).ravel()
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
    refinement gap |mu_M - mu_2M| at the midpoint of the sweep.
    """
    if tol_lambda <= 0.0:
        raise DomainError("tol_lambda must be positive")
    cap = hardy_constant(m.N)
    forms = _forms_for(m, M, gamma, 2.0, bc)

    def bisect(delta):
        lo, hi = float(sweep[0]), float(sweep[1])

        def below(lam):
            return count_below(forms, lam, cap - delta) >= 1

        widen = 0
        while below(lo):
            hi = lo
            lo *= 2.0
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
            if widen > 3:
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
    max_iters: int = 800,
) -> TheoremReport:
    """Compare the minimized quotient against the sharp flat constant.

    Verdict CONFIRMS_THEOREM requires the curvature criterion to hold and
    the margin to exceed five times the Richardson (two-grid) error
    estimate; anything weaker is INCONCLUSIVE.
    """
    s_best = hardy_sobolev_constant(m.N, sigma)
    coarse = minimize_quotient(_forms_for(m, M, gamma, sigma, bc), lam, max_iters=max_iters)
    fine = minimize_quotient(_forms_for(m, 2 * M, gamma, sigma, bc), lam, max_iters=max_iters)
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
    best = fine if fine.mu_upper <= coarse.mu_upper else coarse
    return TheoremReport(
        manifold_kind=m.kind,
        N=m.N,
        lam=float(lam),
        sigma=float(sigma),
        mu_upper=mu_upper,
        sharp_constant=s_best,
        margin=margin,
        error_estimate=err,
        criterion_holds=crit,
        lambda_negative=lam < 0.0,
        within_theorem_dims=within_dims,
        verdict=verdict,
        init_tag=best.init_tag,
        concentration=best.concentration,
        coarse=coarse,
        fine=fine,
    )
