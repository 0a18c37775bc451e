"""Constrained minimization of the sigma < 2 quotient over radial profiles.

Nonlinear inverse-power iteration (Hein and Buehler, NIPS 2010,
arXiv:1012.0774) for Q(u) = u'Au / F(u)^{2/p}, with A = K - lambda Mass, F the
singular-weight constraint functional and p = p_crit > 2.  Iterates are
rescaled onto F = 1, where Q = u'Au, so each is a certified upper bound.
The best run over a constant and concentrating bubble starts (flat and
curved phenomenology) is returned.

A step solves Ã s = r for the Lagrange residual r = Au - (Q/p) g, g = grad
F(u) (u'g = pF), on the free nodes and moves to u - s, rescaled.  Ã = A + c
Mass is factored once per call.  c = 0 when A - 1e-8 (1 + |lambda|) Mass
has only positive pivots, so A is definite with a margin far above the
pivots' rounding; then u - s = (Q/p) w with w = A^{-1} g, and Q cannot
rise: Hoelder gives w'Aw = g'w <= p F(w)^{1/p}, so
Q(w) <= p^2 / (w'Aw), and Cauchy-Schwarz in the A inner product gives
p^2 = (u'Aw)^2 <= Q(u) w'Aw.  Otherwise (A indefinite or singular, as for
lambda >= 0 on the full sphere) Ã = K + (1 + |lambda|) Mass, definite for
every lambda; no descent is proved there, and measured rises stay below
1e-11 relative.

gnorm = sqrt(r'Ã^{-1}r) / (1 + |Q|); converged means gnorm <= grad_tol.
Every step is taken.  A run stops when it converges, when max_iters runs
out, or when Q rises above its lowest value by more than the two energies'
rounding bounds gamma_{n+3} |u|'|A||u| (gamma_k = k eps / (1 - k eps),
eps = 2^-53: gamma_3 per entry of Au, gamma_n for the dot; Higham, Accuracy
and Stability of Numerical Algorithms, sec. 3.1); it returns its
lowest-energy iterate.  The 1/h^2 stiffness entries cancel in u'Au, so the
bound is 1e-12 relative at M = 32 and 3e-8 at M = 1024.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .bubble import bubble_value
from .eigensolver import inertia_count
from .errors import DomainError
from .forms import (
    QuadraticForms,
    evaluate_quotient,
    hs_functional,
    hs_gradient,
    tri_matvec,
    tri_quadform,
)

__all__ = ["MinimizationResult", "bubble_init", "constant_init", "minimize_quotient", "smooth_cutoff"]


@dataclass
class MinimizationResult:
    mu_upper: float
    profile: np.ndarray  # hs-normalized nodal profile (full length)
    iterations: int
    grad_norm: float
    init_tag: str
    concentration: float
    converged: bool


def smooth_cutoff(x):
    """C^3 step: 1 on x <= 0, 0 on x >= 1 (quartic smoothstep in between)."""
    x = np.asarray(x, dtype=float)
    t = np.clip(x, 0.0, 1.0)
    s = t**4 * (35.0 - 84.0 * t + 70.0 * t**2 - 20.0 * t**3)
    return 1.0 - s


def smooth_cutoff_deriv(x):
    x = np.asarray(x, dtype=float)
    t = np.clip(x, 0.0, 1.0)
    ds = 140.0 * t**3 - 420.0 * t**4 + 420.0 * t**5 - 140.0 * t**6
    return np.where((x > 0.0) & (x < 1.0), -ds, 0.0)


def bubble_init(forms: QuadraticForms, n: float, r_cut: float | None = None) -> np.ndarray:
    """Nodal interpolation of the cutoff concentrating profile
    eta(r) * n^{(N-2)/2} w(n r), with eta == 1 on [0, r_cut] and eta == 0
    beyond 2*r_cut."""
    if n < 1.0:
        raise DomainError(f"concentration index must be >= 1, got {n!r}")
    grid = forms.grid
    if r_cut is None:
        r_cut = grid.r_max / 2.0
    if 2.0 * r_cut > grid.r_max * (1.0 + 1e-12):
        raise DomainError("cutoff support 2*r_cut exceeds the domain radius")
    m = forms.manifold
    r = grid.nodes
    eta = smooth_cutoff((r - r_cut) / r_cut)
    u = eta * n ** ((m.N - 2) / 2.0) * bubble_value(n * r, m.N, forms.sigma)
    if grid.bc == "dirichlet":
        u[-1] = 0.0
    return u


def constant_init(forms: QuadraticForms) -> np.ndarray:
    u = np.ones(forms.n_nodes)
    if forms.grid.bc == "dirichlet":
        # taper into the boundary to stay admissible
        u = smooth_cutoff((forms.grid.nodes / forms.grid.r_max - 0.5) / 0.5)
        u[-1] = 0.0
    return u


def _project(forms: QuadraticForms, u: np.ndarray) -> np.ndarray:
    h = hs_functional(forms, u)
    if h <= 0.0:
        raise DomainError("cannot project the zero profile onto the constraint")
    return u / h ** (1.0 / forms.p_crit)


def minimize_quotient(
    forms: QuadraticForms,
    lam: float,
    inits: list[np.ndarray] | None = None,
    max_iters: int = 800,
    grad_tol: float = 1e-8,
) -> MinimizationResult:
    """Best constrained stationary value over all starting profiles; a run
    that stops above tolerance is flagged non-converged but its value
    remains a valid upper bound."""
    if forms.hs_weights is None:
        raise DomainError("minimize_quotient requires forms with sigma in (0, 2)")
    if inits is None:
        inits = [constant_init(forms)] + [bubble_init(forms, n) for n in (2.0, 8.0, 32.0)]
        tags = ["constant", "bubble(2)", "bubble(8)", "bubble(32)"]
    else:
        tags = [f"init{j}" for j in range(len(inits))]
    if not inits:
        raise DomainError("at least one starting profile is required")

    a = (forms.kd - lam * forms.md, forms.ke - lam * forms.me)
    factor = _shifted_factor(forms, lam)
    best: MinimizationResult | None = None
    for tag, u0 in zip(tags, inits):
        res = _descend(forms, lam, a, factor, u0, tag, max_iters, grad_tol)
        if best is None or res.mu_upper < best.mu_upper:
            best = res
    return best


def _shifted_factor(forms: QuadraticForms, lam: float):
    """LDL^T factors on the free nodes of A = K - lam*Mass when
    A - 1e-8 (1 + |lam|) Mass has only positive pivots, else of
    K + (1 + |lam|) Mass."""
    n = forms.dof.stop
    kd, ke, md, me = forms.kd[:n], forms.ke[: n - 1], forms.md[:n], forms.me[: n - 1]
    definite = inertia_count(kd, ke, md, lam + 1e-8 * (1.0 + abs(lam)), me) == 0
    kappa = -lam if definite else 1.0 + abs(lam)
    return _kernels.ldl_factor(kd + kappa * md, ke + kappa * me)


def _energy(a, u):
    """Au, q = u'Au and gamma_{n+3} |u|'|A||u|, the bound on q's rounding."""
    au = tri_matvec(a[0], a[1], u)
    k_eps = (u.shape[0] + 3) * 2.0**-53
    return au, float(np.dot(u, au)), k_eps / (1.0 - k_eps) * tri_quadform(np.abs(a[0]), np.abs(a[1]), np.abs(u))


def _descend(forms, lam, a, factor, u0, tag, max_iters, grad_tol):
    sl = forms.dof
    u = _project(forms, forms.check_profile(np.asarray(u0, dtype=float).copy()))
    best_q, best_err, best_u = math.inf, 0.0, u
    gnorm = math.inf
    iters = 0
    for iters in range(1, max_iters + 1):
        au, q, err = _energy(a, u)
        if q > best_q + best_err + err:
            break
        if q < best_q:
            best_q, best_err, best_u = q, err, u
        _, grad = hs_gradient(forms, u)
        r = (au - (q / forms.p_crit) * grad)[sl]
        s = _kernels.ldl_solve(*factor, r)
        gnorm = math.sqrt(max(float(np.dot(r, s)), 0.0)) / (1.0 + abs(q))
        if gnorm <= grad_tol:
            break
        v = u.copy()
        v[sl] -= s
        u = _project(forms, v)

    u = best_u
    if np.any(u < 0.0):
        # the shifted (c > 0) step need not keep the sign; |u| is admissible
        u = _project(forms, np.abs(u))
    return MinimizationResult(
        mu_upper=evaluate_quotient(forms, u, lam),
        profile=u,
        iterations=iters,
        grad_norm=gnorm,
        init_tag=tag,
        concentration=_hs_concentration(forms, u),
        converged=gnorm <= grad_tol,
    )


def _hs_concentration(forms: QuadraticForms, u: np.ndarray, frac: float = 0.01) -> float:
    """Share of the constraint integral in the cells whose inner node lies
    within radius frac*r_max."""
    k = int(np.searchsorted(forms.grid.nodes[:-1], frac * forms.grid.r_max, side="right"))
    inner = _kernels.power_moment(u[: k + 1], forms.hs_weights[:k], forms.hs_t, forms.p_crit)
    return inner / hs_functional(forms, u)
