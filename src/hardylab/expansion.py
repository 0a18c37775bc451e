"""Concentrating test-function family and its second-order quotient fit.

For the cutoff family u_n = eta * n^{(N-2)/2} w(n r) the quotient

    Q(n) = (int |grad u_n|^2 - lambda int u_n^2) / (int rho^{-sigma} |u_n|^p)^{2/p}

tends to the sharp constant with a second-order correction: c1/n^2 for
N >= 5 and (c1 log n + c2)/n^2 for N = 4, where the divergent moments turn
the coefficient into a log slope.  Each Q(n) is evaluated by dedicated
radial quadrature on panels refined proportionally to 1/n near the pole
(reusing the coarser solver grids would alias the collapsing scale).  The
panels of every n are evaluated in one stacked elementwise pass per rule,
and each n takes its three dot products on its own slice, so each Q(n) is
the same as if its panels had been evaluated alone.

Second-order coefficient.  The volume density at the pole is
sqrt|g|(r) = 1 - a r^2 + O(r^4) with a = S_g(p0)/(6N).  Substituting
s = n r, the three integrals of Q(n) become the bubble moments
(``bubble_moments``: dirichlet D, mass2, hs_mass H, r2_dirichlet,
r2_hs) up to corrections of relative order n^{-2}:

    int |grad u_n|^2 = D - a r2_dirichlet / n^2 + ...
    int u_n^2        = mass2 / n^2 + ...
    int r^{-sigma}|u_n|^p = H - a r2_hs / n^2 + ...

and with D / H^{2/p} = S_{N,sigma} the quotient is Q(n) = S_{N,sigma} -
c1/n^2 + ..., where

    c1 = [a (r2_dirichlet - (2/p) S_{N,sigma} H^{(2-p)/p} r2_hs)
          + lambda mass2] / H^{2/p}.

The Pohozaev identity r2_dirichlet = N mass2 + S H^{(2-p)/p} r2_hs
(``bubble.pohozaev_residual``) and the bubble's moment ratio
r2_dirichlet / mass2 = N(N-2)(N+2-sigma) / (2(2N-2-sigma)) reduce this to

    c1 = (c_{N,sigma} S_g(p0) + lambda) mass2 / H^{2/p},
    c_{N,sigma} = (N-2)(6-sigma) / (12(2N-2-sigma)),

the constant of Jaber's curvature condition for Hardy-Sobolev equations on
compact manifolds (Nonlinear Anal. 2014): the coefficient vanishes exactly
at lambda = -c_{N,sigma} S_g(p0).  Since c_{N,sigma} >= 1/6 for N >= 4 and
0 <= sigma < 2, S_g(p0) > -6 lambda is sufficient for c1 > 0 when
lambda <= 0.  At N = 4, c_{4,sigma} = 1/6 and mass2, r2_dirichlet diverge
like log n with slopes in the ratio 1 : 4; the log slope of the quotient
is then (S_g(p0) + 6 lambda)/24 * slope(r2_dirichlet) / H^{2/p}, which is
the same formula with the truncated log slope in place of r2_dirichlet.

Remainder orders (N >= 5).  Beyond c1/n^2 the family carries

* n^{-4} from the interior, the next term of the density expansion and
  the square of the n^{-2} corrections in the quotient;
* n^{-(N-2) - (2-sigma) k}, k = 0, 1, ..., from the cutoff annulus and the
  moment tails beyond s = n r_cut, because the bubble tail is
  w(s) = s^{2-N} (1 + s^{sigma-2})^{(2-N)/(2-sigma)}, a power series in
  s^{sigma-2} times s^{2-N}.

``fit_expansion`` carries the two smallest of these orders above 2 (n^{-3}
and n^{-4} for N = 5, sigma = 1); where two orders coincide (N = 6 gives
n^{-4} twice) a log n / n^4 term appears that the fit does not carry.
Even so, c1 is resolved only on an asymptotic window: the pinned window
n = 4..64 returns c1 within about 10 % of the formula for (S^5, sigma = 1)
but about 50 % off at sigma = 1.5, where the tail series advances only
in steps of n^{-(2-sigma)} = n^{-1/2}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bubble import bubble_grad, bubble_moments, bubble_value
from .constants import check_sigma, critical_exponent, hardy_sobolev_constant, sphere_area
from .errors import DomainError
from .forms import gauss_panels
from .manifold import ModelManifold, scalar_curvature_at_pole
from .minimizer import cutoff_radius, smooth_cutoff, smooth_cutoff_deriv

__all__ = ["ExpansionSeries", "ExpansionFit", "quotient_series", "theory_coefficient", "fit_expansion"]


@dataclass
class ExpansionSeries:
    n: np.ndarray
    energy: np.ndarray  # E(u_n)
    denom: np.ndarray  # constraint integral raised to 2/p
    quotient: np.ndarray  # Q(n) = E / denom
    lam: float
    sigma: float
    N: int
    r_cut: float


@dataclass
class ExpansionFit:
    model: str  # "inverse-square" (N>=5) or "log-corrected" (N=4)
    c0: float
    c1: float
    c2: float
    rms_residual: float


def _panel_edges(r_cut: float, n: float, levels_extra: int = 0) -> np.ndarray:
    """Geometric panels from the collapsing scale r_cut/(512 n) up to 2*r_cut."""
    k = int(math.ceil(math.log2(512.0 * n))) + levels_extra
    inner = 2.0 * r_cut * 2.0 ** (-np.arange(k, -1, -1, dtype=float))
    return np.concatenate(([0.0], inner))


def _family_integrals(m: ModelManifold, lam, sigma, ns, r_cut, order, levels_extra=0):
    """Energy E and denominator D of u_n for every n in ns: the panel nodes
    of all n are evaluated in one stacked elementwise pass, then each n
    takes its three dot products on its own slice."""
    nn = m.N
    om = sphere_area(nn - 1)
    p = critical_exponent(sigma, nn)
    rules = [gauss_panels(_panel_edges(r_cut, n, levels_extra), order) for n in ns]
    sizes = [w.size for _, w in rules]
    r = np.concatenate([nodes.ravel() for nodes, _ in rules])
    w = np.concatenate([weights.ravel() for _, weights in rules])
    amp = [n ** ((nn - 2) / 2.0) for n in ns]

    eta = smooth_cutoff((r - r_cut) / r_cut)
    deta = smooth_cutoff_deriv((r - r_cut) / r_cut) / r_cut
    nr = np.repeat(ns, sizes) * r
    wv = np.repeat(amp, sizes) * bubble_value(nr, nn, sigma)
    wg = np.repeat([a * n for a, n in zip(amp, ns)], sizes) * bubble_grad(nr, nn, sigma)
    u = eta * wv
    du = deta * wv + eta * wg
    psi = m.warp(r) ** (nn - 1)
    kin_f = du * du * psi
    mass_f = u * u * psi
    hs_f = r ** (-sigma) * np.abs(u) ** p * psi

    energy, denom = np.empty_like(ns), np.empty_like(ns)
    stop = 0
    for i, size in enumerate(sizes):
        sl = slice(stop, stop + size)
        stop += size
        kin = om * float(np.dot(w[sl], kin_f[sl]))
        mass = om * float(np.dot(w[sl], mass_f[sl]))
        hs = om * float(np.dot(w[sl], hs_f[sl]))
        energy[i] = kin - lam * mass
        denom[i] = hs ** (2.0 / p)
    return energy, denom


def quotient_series(
    m: ModelManifold,
    lam: float,
    sigma: float,
    n_list,
    r_cut: float | None = None,
) -> ExpansionSeries:
    """E, D and Q for each concentration index n (increasing, min 2).

    The quadrature self-checks by re-running with extra panel levels and a
    higher-order rule; disagreement raises rather than returning an
    under-resolved series.
    """
    s = check_sigma(sigma, closed=False)
    if s <= 0.0:
        raise DomainError("quotient_series requires sigma in (0, 2)")
    ns = np.asarray(sorted(float(v) for v in n_list), dtype=float)
    if len(ns) == 0 or ns[0] < 2.0:
        raise DomainError("n_list must be increasing with min(n) >= 2")
    r_cut = cutoff_radius(r_cut, m.r_max)
    e1, d1 = _family_integrals(m, lam, s, ns, r_cut, 24)
    energy, denom = _family_integrals(m, lam, s, ns, r_cut, 32, levels_extra=2)
    for n, a1, b1, a2, b2 in zip(ns, e1, d1, energy, denom):
        if abs(a1 - a2) > 1e-8 * max(abs(a2), 1.0) or abs(b1 - b2) > 1e-8 * max(abs(b2), 1.0):
            raise DomainError(f"quadrature self-check failed at n={n}; refine the panels")
    return ExpansionSeries(
        n=ns, energy=energy, denom=denom, quotient=energy / denom,
        lam=lam, sigma=s, N=m.N, r_cut=float(r_cut),
    )


def theory_coefficient(m: ModelManifold, lam: float, sigma: float) -> float:
    """Predicted second-order coefficient c1 in Q(n) ~ S - c1/n^2.

    For N >= 5 it is the direct expansion of the module docstring,
    [a (r2_dirichlet - (2/p) S H^{(2-p)/p} r2_hs) + lambda mass2] / H^{2/p}
    with a = S_g(p0)/(6N) and H = hs_mass; its sign is that of
    c_{N,sigma} S_g(p0) + lambda.  For N = 4, where mass2 and r2_dirichlet
    diverge like log n, it is the log slope (S_g(p0) + 6 lambda)/(6N) *
    slope(r2_dirichlet) / H^{2/p}, the coefficient of log n / n^2.
    """
    s = check_sigma(sigma, closed=False)
    if s <= 0.0:
        raise DomainError("theory_coefficient requires sigma in (0, 2)")
    if lam > 0.0:
        raise DomainError("the expansion regime has lambda <= 0")
    nn = m.N
    if nn < 4:
        raise DomainError("the expansion requires N >= 4")
    mom = bubble_moments(nn, s, tol=1e-10)
    p = critical_exponent(s, nn)
    hs = mom.hs_mass.value
    d_inf = hs ** (2.0 / p)
    sg = scalar_curvature_at_pole(m)
    if nn == 4:
        return (sg + 6.0 * lam) / (6.0 * nn) * mom.r2_dirichlet.log_slope / d_inf
    a = sg / (6.0 * nn)
    hs_term = (2.0 / p) * hardy_sobolev_constant(nn, s) * hs ** ((2.0 - p) / p) * mom.r2_hs.value
    return (a * (mom.r2_dirichlet.value - hs_term) + lam * mom.mass2.value) / d_inf


def _remainder_orders(N: int, sigma: float) -> list[float]:
    """The two leading orders q > 2 of the n^{-q} remainder beyond c1/n^2
    for N >= 5: the two smallest of {4} and {N-2 + (2-sigma) k : k >= 0}
    (see the module docstring)."""
    return sorted({4.0, N - 2.0, N - 2.0 + (2.0 - sigma)})[:2]


def fit_expansion(series: ExpansionSeries, N: int | None = None) -> ExpansionFit:
    """Least squares of Q(n) against {1, 1/n^2, n^{-q1}, n^{-q2}} (N >= 5,
    q1 and q2 the remainder orders of the module docstring) or
    {1, log n/n^2, 1/n^2} (N = 4).

    c0 is the fitted limit and c1 the second-order coefficient in
    Q ~ c0 - c1/n^2 (resp. c0 - (c1 log n + c2)/n^2); the remainder
    coefficients are fitted but not reported.  Without the remainder
    columns the N >= 5 fit absorbs the n^{-3} term into c1 (a third of the
    true value on n = 4..64 for S^5).  At least four entries are needed,
    one per column of the N >= 5 design; with exactly four that design
    interpolates and rms_residual is 0.
    """
    nn = series.N if N is None else int(N)
    if nn < 4:
        raise DomainError("fit requires N >= 4")
    n = series.n
    q = series.quotient
    if len(n) < 4:
        raise DomainError("need at least 4 series entries to fit")
    if nn == 4:
        design = np.column_stack([np.ones_like(n), -np.log(n) / n**2, -1.0 / n**2])
        model = "log-corrected"
    else:
        tails = [n**-order for order in _remainder_orders(nn, series.sigma)]
        design = np.column_stack([np.ones_like(n), -1.0 / n**2, *tails])
        model = "inverse-square"
    coef, _, rank, _ = np.linalg.lstsq(design, q, rcond=None)
    if rank < design.shape[1]:
        raise DomainError("rank-deficient fit design (n_list too short or clustered)")
    resid = q - design @ coef
    rms = float(np.sqrt(np.mean(resid**2)))
    c0 = float(coef[0])
    c1 = float(coef[1])
    c2 = float(coef[2]) if nn == 4 else 0.0
    return ExpansionFit(model=model, c0=c0, c1=c1, c2=c2, rms_residual=rms)
