"""Constrained minimization of the sigma < 2 quotient over radial profiles.

Nonlinear inverse-power iteration (Hein and Buehler, NIPS 2010,
arXiv:1012.0774) for Q(u) = u'Au / F(u)^{2/p}, with A = K - lambda Mass, F the
singular-weight constraint functional and p = p_crit > 2.  Iterates are
rescaled onto F = 1, where Q = u'Au, so each is a certified upper bound.
The best run over a constant and concentrating bubble starts (flat and
curved phenomenology) is returned.

A step solves Ã s = r for the Lagrange residual r = Au - (Q/p) g, g = grad
F(u) (u'g = pF), on the free nodes and moves to u - s, rescaled.  Ã = A + c
Mass goes the eigensolver's pencil path (``_pencil_arrays``,
``_kernels.definite_test``) and is factored once per call.  c = 0 when
A - 1e-8 (1 + |lambda|) Mass is positive definite, so A is definite
with a margin far above the pivots' rounding; then u - s = (Q/p) w with
w = A^{-1} g, and Q cannot rise: Hoelder gives w'Aw = g'w <= p F(w)^{1/p},
so Q(w) <= p^2 / (w'Aw), and Cauchy-Schwarz in the A inner product gives
p^2 = (u'Aw)^2 <= Q(u) w'Aw.  Otherwise (that test fails, an exact zero
pivot included: A indefinite or singular, as for lambda >= 0 on the full
sphere) Ã = K + (1 + |lambda|) Mass, definite for every lambda; no descent
is proved there, and measured rises stay below 1e-11 relative.

The step is a fixed-point map G(u) = project(u - s), which converges only
linearly where the minimizer concentrates (the flat ball at lambda = 0: 729
steps at M = 256).  It is Anderson-mixed (Walker and Ni, SIAM J. Numer.
Anal. 49, 2011) with depth _DEPTH: with f = G(u) - u and the differences
dU, dF of the last iterates and of their f, gamma minimizes |f - dF gamma|
(least squares on the free nodes, by its normal equations; no candidate
when they are singular) and the candidate G(u) - (dU + dF) gamma is made
non-negative (|.|), its Dirichlet node zeroed and it is rescaled onto
F = 1.  It is taken only when Q(candidate) <= Q(G(u)); else G(u) is
taken and the history is cleared.  Every iterate therefore lies on F = 1
and is still an upper bound, and Q(u_{k+1}) <= Q(G(u_k)) <= Q(u_k) keeps
the descent wherever it is proved above (34-39 steps per start on the
flat ball at M = 256).  G(u) and the candidate are each rescaled by one
evaluation of F and grad F (``_kernels.power_moment_grad``, one ``pow`` per
Gauss point), whose gradient carries over to the rescaled vector:
F(cv) = c^p F(v), grad F(cv) = c^{p-1} grad F(v).  A step thus makes one
solve and at most two evaluations, and no point is evaluated twice.

gnorm = sqrt(r'Ã^{-1}r) / (1 + |Q|); converged means gnorm <= _GRAD_TOL = 1e-8.
A run stops when it converges, when max_iters runs out, or when Q rises
above its lowest value by more than the two energies' rounding bounds
gamma_{n+3} |u|'|A||u| (gamma_k = k eps / (1 - k eps), eps = 2^-53:
gamma_3 per entry of Au, gamma_n for the dot; Higham, Accuracy and
Stability of Numerical Algorithms, sec. 3.1); it returns its lowest-energy
iterate.  The 1/h^2 stiffness entries cancel in u'Au, so the
bound is 1e-12 relative at M = 32 and 3e-8 at M = 1024.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .bubble import bubble_value
from .eigensolver import _CORE, _check_pencil, _pencil_arrays
from .errors import DomainError
from .forms import (
    QuadraticForms,
    evaluate_quotient,
    hs_functional,
    hs_gradient,
    tri_matvec,
    tri_quadform,
)

_DEPTH = 5  # Anderson mixing depth: differences kept in the history
_GRAD_TOL = 1e-8  # convergence: gnorm at or below this

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
    iterations_total: int = 0  # steps summed over all starts
    evaluations: int = 0  # F and grad F evaluations, summed over all starts
    solves: int = 0  # preconditioner solves, summed over all starts
    finals: list = field(default_factory=list)  # (mu_upper, profile) of every start, in start order


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


def cutoff_radius(r_cut: float | None, r_max: float) -> float:
    """The cutoff radius r_cut (default r_max/2); its support [0, 2*r_cut]
    must be a nonempty part of the domain [0, r_max]."""
    if r_cut is None:
        return r_max / 2.0
    if not (r_cut > 0.0 and 2.0 * r_cut <= r_max * (1.0 + 1e-12)):
        raise DomainError(f"cutoff radius must satisfy 0 < r_cut <= r_max/2, got r_cut = {r_cut!r}")
    return r_cut


def bubble_init(forms: QuadraticForms, n: float, r_cut: float | None = None) -> np.ndarray:
    """Nodal interpolation of the cutoff concentrating profile
    eta(r) * n^{(N-2)/2} w(n r), with eta == 1 on [0, r_cut] and eta == 0
    beyond 2*r_cut."""
    if n < 1.0:
        raise DomainError(f"concentration index must be >= 1, got {n!r}")
    grid = forms.grid
    r_cut = cutoff_radius(r_cut, grid.r_max)
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


def _project_grad(forms: QuadraticForms, u: np.ndarray):
    """u rescaled onto F = 1 and grad F there, from one evaluation at u:
    F(cu) = c^p F(u) and grad F(cu) = c^{p-1} grad F(u)."""
    h, grad = hs_gradient(forms, u)
    if h <= 0.0:
        raise DomainError("cannot project the zero profile onto the constraint")
    c = h ** (-1.0 / forms.p_crit)
    return c * u, grad / (h * c)


def minimize_quotient(
    forms: QuadraticForms,
    lam: float,
    inits: list[np.ndarray] | None = None,
    max_iters: int = 800,
) -> MinimizationResult:
    """Best constrained stationary value over all starting profiles; a run
    that stops above tolerance is flagged non-converged but its value
    remains a valid upper bound.  ``finals`` holds every start's value and
    profile.  A non-finite entry of K - lam*Mass, or a start whose energy
    is not finite, is refused."""
    if forms.hs_weights is None:
        raise DomainError("minimize_quotient requires forms with sigma in (0, 2)")
    if inits is None:
        inits = [constant_init(forms)] + [bubble_init(forms, n) for n in (2.0, 8.0, 32.0)]
        tags = ["constant", "bubble(2)", "bubble(8)", "bubble(32)"]
    else:
        tags = [f"init{j}" for j in range(len(inits))]
    if not inits:
        raise DomainError("at least one starting profile is required")

    with np.errstate(over="ignore"):  # _check_pencil refuses what overflows
        a = (forms.kd - lam * forms.md, forms.ke - lam * forms.me)
    _check_pencil(*a, lam)
    abs_a = (np.abs(a[0]), np.abs(a[1]))
    factor = _shifted_factor(forms, lam)
    runs = [_descend(forms, lam, a, abs_a, factor, u0, tag, max_iters) for tag, u0 in zip(tags, inits)]
    best = min(runs, key=lambda res: res.mu_upper)
    best.concentration = _hs_concentration(forms, best.profile)
    best.iterations_total = sum(res.iterations for res in runs)
    best.evaluations = sum(res.evaluations for res in runs) + 2  # the concentration's two
    best.solves = sum(res.solves for res in runs)
    best.finals = [(res.mu_upper, res.profile) for res in runs]
    return best


def _shifted_factor(forms: QuadraticForms, lam: float):
    """LDL^T factors on the free nodes of A = K - lam*Mass when
    A - 1e-8 (1 + |lam|) Mass is positive definite, else of
    K + (1 + |lam|) Mass."""
    d, e, md, me = _pencil_arrays(forms, lam, "mass")
    if not _kernels.definite_test(d, e, md, me)(1e-8 * (1.0 + abs(lam))):
        d, e, _, _ = _pencil_arrays(forms, -1.0 - abs(lam), "mass")
    return _kernels.ldl_factor(d, e)


def _energy(a, u):
    """Au and q = u'Au."""
    au = tri_matvec(a[0], a[1], u)
    return au, float(np.dot(u, au))


def _rounding(abs_a, u):
    """gamma_{n+3} |u|'|A||u|, the bound on the rounding of u'Au, from
    |A| = (|d|, |e|)."""
    k_eps = (u.shape[0] + 3) * 2.0**-53
    return k_eps / (1.0 - k_eps) * tri_quadform(abs_a[0], abs_a[1], np.abs(u))


def _mixed(g, f, d_u, d_f):
    """|g - (dU + dF) gamma|, gamma minimizing |f - dF gamma| by its normal
    equations; zero when the differences dF are linearly dependent.  The
    differences are the rows of dU^T and dF^T."""
    df = np.array(d_f)
    try:
        gamma = np.linalg.solve(df @ df.T, df @ f)
    except np.linalg.LinAlgError:
        return 0.0
    return np.abs(g - gamma @ (np.array(d_u) + df))


def _descend(forms, lam, a, abs_a, factor, u0, tag, max_iters):
    sl = forms.dof
    u, grad = _project_grad(forms, forms.check_profile(np.asarray(u0, dtype=float).copy()))
    evals, solves = 1, 0
    # at a huge lambda an energy, its rounding bound or gnorm may overflow;
    # each is read next: a start whose energy is not finite is refused, an
    # infinite energy later fails the rise test, an infinite rounding bound
    # declares no rise and an infinite gnorm is not converged
    with np.errstate(over="ignore"):
        au, q = _energy(a, u)
        if not math.isfinite(q):
            raise DomainError(f"the energy of start {tag} leaves the double range at lambda = {float(lam)!r}")
        best_q, best_err, best_u = math.inf, 0.0, u
        gnorm = math.inf
        prev = None  # (u, G(u) - u) on the free nodes, of the last step
        d_u, d_f = [], []  # the mixing history: differences of both
        iters = 0
        for iters in range(1, max_iters + 1):
            err = _rounding(abs_a, u)
            if q > best_q + best_err + err:
                break
            if q < best_q:
                best_q, best_err, best_u = q, err, u
            r = (au - (q / forms.p_crit) * grad)[sl]
            s = _kernels.ldl_solve(*factor, r)
            solves += 1
            gnorm = math.sqrt(max(float(np.dot(r, s)), 0.0)) / (1.0 + abs(q))
            if gnorm <= _GRAD_TOL:
                break
            v = u.copy()
            v[sl] -= s
            mix = prev is not None
            v, v_grad = _project_grad(forms, v)
            evals += 1
            f = (v - u)[sl]
            if mix:
                d_u.append(u[sl] - prev[0])
                d_f.append(f - prev[1])
                del d_u[:-_DEPTH], d_f[:-_DEPTH]
            prev = (u[sl], f) if _DEPTH else None
            u, grad = v, v_grad
            au, q = _energy(a, u)
            if mix:
                x = np.zeros_like(u)
                x[sl] = _mixed(u[sl], f, d_u, d_f)
                if np.any(x):  # zero: no candidate, or none that can be rescaled
                    x, x_grad = _project_grad(forms, x)
                    evals += 1
                    ax, qx = _energy(a, x)
                    if qx <= q:
                        u, au, q, grad = x, ax, qx, x_grad
                        continue
                d_u.clear()
                d_f.clear()
                prev = None

    u = best_u
    if np.any(u < 0.0):
        # the shifted (c > 0) step need not keep the sign; |u| is admissible
        u = _project(forms, np.abs(u))
        evals += 1
    return MinimizationResult(
        mu_upper=evaluate_quotient(forms, u, lam),
        profile=u,
        iterations=iters,
        grad_norm=gnorm,
        init_tag=tag,
        concentration=math.nan,  # computed for the best start only
        converged=gnorm <= _GRAD_TOL,
        evaluations=evals + 1,  # and the quotient's
        solves=solves,
    )


def _hs_concentration(forms: QuadraticForms, u: np.ndarray) -> float:
    """Share of the constraint integral in the cells whose inner node lies
    within radius _CORE*r_max."""
    k = int(np.searchsorted(forms.grid.nodes[:-1], _CORE * forms.grid.r_max, side="right"))
    inner = _kernels.power_moment(u[: k + 1], forms.hs_weights[:k], forms.hs_t, forms.p_crit)
    return inner / hs_functional(forms, u)
