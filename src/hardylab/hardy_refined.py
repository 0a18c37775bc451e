"""Log-perturbed near-extremal profiles and the improved local inequality.

The family v_a(r) = r^{(2-N)/2} |log r|^a satisfies, in flat space and
exactly,

    Delta v_a + cap r^{-2} v_a - a(a-1) r^{-2} (log r)^{-2} v_a = 0,

so a finite-difference residual of that identity isolates pure
discretization error; its weighted maximum is the convergence diagnostic
used here.  The same family bounds the achievable coefficient of the
log-corrected term: -a(a-1) is maximized at a = 1/2 with value 1/4, which
makes v_{1/2} the super-solution-generating exponent, while every
a < 1/2 with a(a-1) > 0 (in particular the whole branch a < 0) gives
sub-solutions near the pole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import check_dimension, hardy_constant, sphere_area
from .eigensolver import _eigen
from .errors import DomainError
from .forms import assemble_forms, assemble_lumped_weight, build_grid
from .manifold import ModelManifold, euclidean_ball

__all__ = [
    "log_bubble_value",
    "build_log_grid",
    "flat_operator_residual",
    "curved_operator_residual",
    "ImprovedHardyResult",
    "improved_hardy_eigen",
    "dominant_term_sign",
    "h1_norm_scan",
]


def log_bubble_value(r, a: float, N: int):
    """v_a(r) = r^{(2-N)/2} (-log r)^a on 0 < r < 1."""
    n = check_dimension(N)
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0) or np.any(r >= 1.0):
        raise DomainError("log profile requires 0 < r < 1 (the log factor changes sign at 1)")
    out = r ** ((2.0 - n) / 2.0) * (-np.log(r)) ** a
    return out if out.ndim else float(out)


def build_log_grid(r_min: float, r0: float, M: int) -> np.ndarray:
    """Log-uniform nodes on [r_min, r0] (uniform in log r)."""
    if not 0.0 < r_min < r0 < math.inf:  # NaN fails too
        raise DomainError("need 0 < r_min < r0 < inf")
    if not 8 <= M < math.inf:
        raise DomainError("need at least 8 nodes")
    return np.exp(np.linspace(math.log(r_min), math.log(r0), int(M)))


def dominant_term_sign(a: float) -> int:
    """Sign of -a(a-1), the coefficient of the dominant log-corrected term.

    Positive only for a in (0, 1) (super-solution side, maximal 1/4 at
    a = 1/2); negative on both a < 0 branches (sub-solution side).
    """
    val = -a * (a - 1.0)
    return 0 if val == 0.0 else (1 if val > 0.0 else -1)


def flat_operator_residual(a: float, lam: float, N: int, grid: np.ndarray, r0: float = 0.5) -> float:
    """Weighted maximum residual of the flat identity for v_a.

    The spectral-parameter term lambda*r^{-2}*v_a appears on both sides of
    the identity and cancels exactly in flat space, so the residual is
    lambda-independent; the argument is kept for interface parity with the
    curved variant.  The residual is weighted by r^{(N-2)/2} |log r|^{-a}
    (the inverse of the profile growth), and decays at second order under
    refinement of a log-uniform grid.  This is the curved residual on the
    flat ball, whose drift psi'/psi is 1/r.
    """
    return curved_operator_residual(euclidean_ball(N), a, lam, grid, r0)


def curved_operator_residual(
    m: ModelManifold, a: float, lam: float, grid: np.ndarray, r0: float = 0.5
) -> float:
    """Weighted residual of the perturbed-profile identity on a curved model.

    Uses the warped radial Laplacian u'' + (N-1)(psi'/psi) u'.  Away from
    flat space the identity holds only up to a remainder of the same
    weighted size as the profile, so the residual is asserted bounded under
    refinement, not convergent to zero.
    """
    n = m.N
    grid = np.asarray(grid, dtype=float)
    if grid[-1] > min(r0, m.r_max) + 1e-15 or r0 >= 1.0:
        raise DomainError("grid must live in (0, r0] with r0 < 1 inside the manifold")
    cap = hardy_constant(n)
    r = grid
    v = log_bubble_value(r, a, n)
    rm, rc, rp = r[:-2], r[1:-1], r[2:]
    vm, vc, vp = v[:-2], v[1:-1], v[2:]
    hm = rc - rm
    hp = rp - rc
    d2 = 2.0 * (vm / (hm * (hm + hp)) - vc / (hm * hp) + vp / (hp * (hm + hp)))
    d1 = (-hp / (hm * (hm + hp))) * vm + ((hp - hm) / (hm * hp)) * vc + (
        hm / (hp * (hm + hp))
    ) * vp
    # (N-1) psi'/psi: (N-1)/r flat, (N-1) cot(r/a)/a sphere, (N-1) coth(r/a)/a hyperbolic
    if m.kind == "euclidean-ball":
        drift = (n - 1.0) / rc
    else:
        trig = np.tan if m.kind == "sphere" else np.tanh
        drift = (n - 1.0) * (1.0 / (m.a * trig(rc / m.a)))
    lap = d2 + drift * d1
    resid = lap + cap * rc**-2 * vc - a * (a - 1.0) * rc**-2 * np.log(rc) ** -2 * vc
    weight = rc ** ((n - 2.0) / 2.0) * np.abs(np.log(rc)) ** (-a)
    return float(np.max(np.abs(resid) * weight))


@dataclass
class ImprovedHardyResult:
    value: float
    within_lemma_scope: bool  # r0 <= 0.1 (the small-ball hypothesis)
    r0: float
    M: int
    gamma: float


def improved_hardy_eigen(N: int, r0: float, M: int = 1024, gamma: float = 3.0) -> ImprovedHardyResult:
    """Least eigenvalue of the pencil (K - cap*W2, W_log) on the flat ball.

    W_log is the r^{-2} (log r)^{-2}-weighted lumped mass.  Values above
    roughly 1 reflect the desk-scale behavior; the concentrating family
    drives the continuous infimum down to 1/4, but only double-
    logarithmically, so the decrease under refinement is extremely slow.
    Computed for any r0 < 1 and flagged outside-lemma-scope when r0 > 0.1.
    """
    n = check_dimension(N)
    if not (0.0 < r0 < 1.0):
        raise DomainError("need 0 < r0 < 1 (the log weight changes sign at 1)")
    ball = euclidean_ball(n, r0)
    grid = build_grid(r0, M, gamma, "dirichlet")
    forms = assemble_forms(grid, ball, 2.0)
    with np.errstate(divide="ignore"):
        wlog = assemble_lumped_weight(grid, ball, lambda r: 1.0 / np.square(r * np.log(r)))
    res = _eigen(forms, *forms.free(forms.kd - hardy_constant(n) * forms.w2, forms.ke), wlog[forms.dof], 0.0)
    return ImprovedHardyResult(
        value=res.mu, within_lemma_scope=r0 <= 0.1, r0=r0, M=M, gamma=gamma
    )


def h1_norm_scan(a: float, N: int, r0: float = 0.5, levels: int = 5) -> list[float]:
    """Discrete Dirichlet norms of v_a on grids reaching ever smaller radii.

    The square-integrability boundary of the gradient sits at a = -1/2:
    norms stabilize for a < -1/2 and grow without bound above it.  The scan
    reports the observed sequence rather than asserting the borderline.
    """
    n = check_dimension(N)
    om = sphere_area(n - 1)
    out = []
    for level in range(levels):
        r_min = r0 * 10.0 ** -(2 + 2 * level)
        r = build_log_grid(r_min, r0, 512 * (level + 1))
        v = log_bubble_value(r, a, n)
        dv = np.diff(v) / np.diff(r)
        rmid = 0.5 * (r[:-1] + r[1:])
        out.append(float(om * np.sum(dv**2 * rmid ** (n - 1) * np.diff(r))))
    return out
