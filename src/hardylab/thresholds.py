"""Threshold localization for the linear pencil and the strict-inequality
report for the interpolated quotient.

The attainment threshold is a bracket of the predicate mu_h(lambda) <
cap - delta, delta tied to the measured refinement gap, one pencil test per
delta (``_margin_test``).  It certifies no side of the continuous
threshold, since the lumped W puts mu_h below its Rayleigh-Ritz value (for
N >= 5 below the cap itself); hi was measured above lambda-star on every
case checked (the exact ball, S^3 and H^3, the enclosures of S^4, S^5, H^4).

A mu curve assembles the forms once and seeds each lambda's eigensolve
with the profile of the one before; a seed saves bisection tests and moves
no bit, so each entry is bit for bit the ``mu_of_lambda`` value.  The
bracket seeds its 2M solves with the M profile, prolonged, and its mu_lo
and mu_hi with the M profile at the bracket midpoint.  The strict-inequality
report runs the minimizer with its own 800-step budget on M nodes from
four cold starts, then on the nested 2M grid from the coarse finals,
prolonged by linear interpolation (exact for P1 profiles), that lie in
distinct basins: the coarse winner, and each other converged final whose
value lies above every kept one by more than the stationarity scale
_GRAD_TOL (1 + |mu|).  Where the four coarse finals tie, as on every
case the tests and the benchmark run, or where no other start converged,
the fine grid runs one warm start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .constants import hardy_constant, hardy_sobolev_constant
from .eigensolver import EigenResult, _bisect, _check_weight, smallest_generalized_eigen
from .errors import DomainError, SweepRangeError
from .forms import _GAUSS_ORDER, assemble_forms, build_grid, gauss_panels
from .manifold import ModelManifold, curvature_criterion
from .minimizer import _GRAD_TOL, MinimizationResult, minimize_quotient

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
    assembled once, each solve seeded by the profile of the one before."""
    lams = np.asarray(sorted(float(v) for v in lambdas), dtype=float)
    forms = _forms_for(m, M, gamma, 2.0, bc)
    mus = np.empty_like(lams)
    concs = np.empty_like(lams)
    trial = None
    for i, lam in enumerate(lams):
        res = smallest_generalized_eigen(forms, lam, trial)
        trial = res.profile
        mus[i] = res.mu
        concs[i] = res.concentration
    return MuCurve(lambdas=lams, mus=mus, concentrations=concs, M=M, gamma=gamma)


def constant_profile_bound(m: ModelManifold) -> float:
    """Quotient of the constant profile at the cap: the threshold must sit at
    or below lambda = -cap * Vol / int rho^{-2} dv, computed by direct
    quadrature of the warp, evaluated once: the forms' per-cell order on 64
    panels, which reaches rounding on these entire integrands (Gauss points
    lie in (0, r_max), so psi/r is finite)."""
    r, wq = (q.ravel() for q in gauss_panels(np.linspace(0.0, m.r_max, 65), _GAUSS_ORDER))
    psi = m.warp(r)
    vol = float(np.dot(wq, psi ** (m.N - 1)))
    inv2 = float(np.dot(wq, (psi / r) ** 2 * psi ** (m.N - 3)))
    return -hardy_constant(m.N) * inv2 / vol


def _margin_test(forms, shift):
    """The definiteness test, in lambda, of (K - shift*W) - lambda*Mass on
    the free nodes: it fails exactly where mu_h(lambda) <= shift."""
    return _kernels.definite_test(*forms.free(forms.kd - shift * forms.w2, forms.ke), *forms.free(forms.md, forms.me))


def lambda_star_bracket(
    m: ModelManifold,
    tol_lambda: float = 0.05,
    detection_delta: float | None = None,
    M: int = 2048,
    gamma: float = 2.0,
    bc: str | None = None,
    sweep: tuple[float, float] = (-20.0, 0.0),
) -> LambdaStarBracket:
    """Bisect the predicate mu_h(lambda) < cap - delta, tested as "(K -
    (cap - delta)*W) - lambda*Mass is not positive definite": one
    definiteness test per margin delta, shifted by lambda (no eigensolve).

    The returned hi lay above the continuous threshold on every case
    measured, which nothing certifies (see the module docstring); delta
    defaults to the measured refinement gap |mu_M - mu_2M| at the midpoint
    of the sweep.  A sweep (finite, bottom <= top) that misses the
    threshold widens: downward at most three times, by max(|lo|, hi - lo)
    or 1 where that is 0, upward at most six times by doubling steps
    (0, 1, 3, 7, 15, 31, 63 from the default top).  Bisection
    (``eigensolver._bisect``) stops at ``tol_lambda`` or when the midpoint
    equals an endpoint, so a ``tol_lambda`` below the spacing of doubles
    near the threshold returns a bracket of adjacent doubles.
    """
    if not (math.isfinite(tol_lambda) and tol_lambda > 0.0):
        raise DomainError(f"tol_lambda must be finite and positive, got {tol_lambda!r}")
    if detection_delta is not None and not (math.isfinite(detection_delta) and detection_delta > 0.0):
        raise DomainError(f"detection_delta must be finite and positive, got {detection_delta!r}")
    if not (math.isfinite(sweep[0]) and math.isfinite(sweep[1]) and sweep[0] <= sweep[1]):
        raise DomainError(f"sweep must be finite with bottom <= top, got {sweep!r}")
    cap = hardy_constant(m.N)
    forms = _forms_for(m, M, gamma, 2.0, bc)
    _check_weight(forms.md[forms.dof])
    trial = None  # the M profile at the bracket midpoint, once measured

    def bisect(delta):
        definite = _margin_test(forms, cap - delta)
        lo, hi = float(sweep[0]), float(sweep[1])
        widen = 0
        while not definite(lo):
            step = max(abs(lo), hi - lo) or 1.0  # 0 only at lo = hi = 0
            hi = lo
            lo -= step
            widen += 1
            if widen > 3:
                raise SweepRangeError("predicate already below-cap at the sweep bottom; widen the sweep downward")
        step = max(1.0, 0.05 * (hi - lo))
        widen = 0
        while definite(hi):
            lo = hi
            hi += step
            step *= 2.0
            widen += 1
            if widen > 6:
                raise SweepRangeError("predicate never detected below-cap over the sweep; widen the sweep upward")
        return _bisect(definite, lo, hi, tol_lambda)[:2]

    if detection_delta is None:
        # provisional pass with the gap at the sweep midpoint, then re-bisect
        # with the gap measured at the bracket midpoint
        forms2 = _forms_for(m, 2 * M, gamma, 2.0, bc)

        def gap_at(lam):
            """|mu_M - mu_2M| at lam, the 2M solve seeded by the M profile
            prolonged onto the nested nodes, and the M profile."""
            coarse = smallest_generalized_eigen(forms, lam)
            prolonged = np.interp(forms2.grid.nodes, forms.grid.nodes, coarse.profile)
            return abs(coarse.mu - smallest_generalized_eigen(forms2, lam, prolonged).mu), coarse.profile

        provisional = max(gap_at(0.5 * (sweep[0] + sweep[1]))[0], 1e-9)
        lo, hi = bisect(provisional)
        gap, trial = gap_at(0.5 * (lo + hi))
        detection_delta = max(gap, 1e-9)
    lo, hi = bisect(detection_delta)
    mu_lo, mu_hi = (smallest_generalized_eigen(forms, lam, trial).mu for lam in (lo, hi))
    return LambdaStarBracket(lo=lo, hi=hi, detection_delta=float(detection_delta), mu_lo=mu_lo, mu_hi=mu_hi, cap=cap)


def _distinct_basins(values, converged) -> list[int]:
    """Indices of the values that mark distinct basins, lowest first: the
    lowest, and each other value whose run ``converged`` and that lies above
    every kept one by more than the stationarity scale
    _GRAD_TOL (1 + |value|).  A run stopped short of stationarity marks no
    basin of its own."""
    kept = []
    for j in sorted(range(len(values)), key=lambda j: values[j]):
        if not kept or converged[j] and values[j] - values[kept[-1]] > _GRAD_TOL * (1.0 + abs(values[j])):
            kept.append(j)
    return kept


def strict_inequality_report(
    m: ModelManifold,
    lam: float,
    sigma: float,
    M: int = 1024,
    gamma: float = 2.0,
    bc: str | None = None,
) -> TheoremReport:
    """Compare the minimized quotient against the sharp flat constant.

    The M-grid minimizer runs its four cold starts; the 2M-grid minimizer
    starts from the coarse winner and the converged coarse finals that
    ``_distinct_basins`` keeps, prolonged
    onto the nested fine nodes.  Each run's value is a certified upper
    bound on its own grid, and the Richardson error estimate
    |mu_M - mu_2M| measures how far refinement lowers the same minimizer.
    Verdict CONFIRMS_THEOREM requires the curvature criterion to hold and
    the margin to exceed five times that estimate; anything weaker is
    INCONCLUSIVE.
    """
    s_best = hardy_sobolev_constant(m.N, sigma)
    coarse_forms = _forms_for(m, M, gamma, sigma, bc)
    fine_forms = _forms_for(m, 2 * M, gamma, sigma, bc)
    coarse = minimize_quotient(coarse_forms, lam)
    starts = [
        np.interp(fine_forms.grid.nodes, coarse_forms.grid.nodes, coarse.finals[j][1])
        for j in _distinct_basins([mu for mu, _ in coarse.finals], [s["stop"] == "converged" for s in coarse.starts])
    ]
    fine = minimize_quotient(fine_forms, lam, inits=starts)
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
