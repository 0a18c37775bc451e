"""Constrained minimization of the sigma < 2 quotient over radial profiles.

Nonlinear inverse-power iteration (Hein and Buehler, NIPS 2010,
arXiv:1012.0774) for Q(u) = u'Au / F(u)^{2/p}, with A = K - lambda Mass, F the
singular-weight constraint functional and p = p_crit > 2.  Iterates are
rescaled onto F = 1, where Q = u'Au, so each is a certified upper bound.
The best run over a constant and concentrating bubble starts (flat and
curved phenomenology) is returned.

A step solves Ã s = r for the Lagrange residual r = Au - (Q/p) g, g = grad
F(u) (u'g = pF), on the free nodes and moves to u - s, rescaled.  Ã = A + c
Mass goes the package's one pencil path (``QuadraticForms.free``,
``_kernels.definite_test``) and is factored once per call; each step solves
with the factor's bound ``solve``.  c = 0 when
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
steps at M = 256).  Each step therefore tries a Newton step on the KKT
system of min u'Au subject to F(u) = 1 (Nocedal and Wright, Numerical
Optimization, 2nd ed., 2006, sec. 18.1) at v = G(u).  With the multiplier
2Q/p of a stationary point on F = 1, the Lagrangian u'Au - (2Q/p)(F - 1)
has gradient 2r, r = Av - (Q/p) grad F(v), and Hessian 2B,
B = A - Q(p - 1) H, where grad^2 F = p(p - 1) H and H = sum over the Gauss
points of w |v|^{p-2} phi phi' is tridiagonal for P1 profiles
(``_kernels.PowerWorkspace.hessian``).  The step d and multiplier change
delta solve [[B, -grad F], [grad F', 0]] [d; delta] = [-r; 0] on the free
nodes: d = -z1 + t z2 with B [z1 z2] = [r, grad F] and
t = (grad F' z1) / (grad F' z2).  One ``dgtsv`` (partial pivoting, since
v'Bv = -(p - 2) Q: B is indefinite along v), bound once per call
(``_kernels.TridiagonalSystem``), solves for both columns; there is no
candidate when it meets an exactly zero pivot or grad F' z2 = 0.  The
candidate v + d, its Dirichlet node +0.0, is rescaled onto F = 1 and taken
only when Q(candidate) <= Q(v); else v is taken.  Every iterate therefore
lies on F = 1 and is still an upper bound, and Q(u_{k+1}) <= Q(G(u_k)) <=
Q(u_k) keeps the descent wherever it is proved above.  Near the minimizer
the candidate converges quadratically: 10-12 steps per start on the flat
ball at M = 256, 14-16 at M = 1024.  r, u - s and the candidate are formed
in buffers made once per call, and s is read from the factor's buffer.

F goes through one ``_kernels.PowerWorkspace`` per call, shared by the
starts.  G(u) and the candidate are each rescaled by one evaluation of F
(``value``, one ``pow`` per Gauss point), which also gives the g that
grad F and H are formed from (H with no second ``pow``); F(cv) = c^p F(v),
grad F(cv) = c^{p-1} grad F(v) and H(cv) = c^{p-2} H(v) carry them over to
the rescaled vector.  grad F is formed (``gradient``) at G(u), which the
Newton system needs, and at the candidate only when it becomes the next
iterate.  A step thus makes one preconditioner solve, one KKT solve, at
most two evaluations and two gradients, and no point is evaluated twice.

gnorm = sqrt(r'Ã^{-1}r) / (1 + |Q|); converged means gnorm <= _GRAD_TOL = 1e-8.
A run stops when it converges, when max_iters runs out, or when Q rises
above its lowest value by more than the two energies' rounding bounds
gamma_{n+3} |u|'|A||u| (gamma_k = k eps / (1 - k eps), eps = 2^-53:
gamma_3 per entry of Au, gamma_n for the dot; Higham, Accuracy and
Stability of Numerical Algorithms, sec. 3.1); it returns its lowest-energy
iterate, and its ``stop`` says which ("converged", "max_iters", "rise").
The 1/h^2 stiffness entries cancel in u'Au, so the bound is 1e-12 relative
at M = 32 and 3e-8 at M = 1024.  The bounds are formed only on a step where
Q exceeds its lowest value (none of the 118 steps of a seed-0
``minimizer-theorem2`` pass), each from its stored vector.  Being
non-negative, they cannot pass the test on any other step, so every stop
is the one that bounds formed on every step would give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .bubble import bubble_value
from .eigensolver import _CORE, _check_pencil
from .errors import DomainError
from .forms import (
    QuadraticForms,
    evaluate_quotient,
    hs_functional,
    tri_matvec,
    tri_quadform,
)

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
    finals: list = field(default_factory=list)  # (mu_upper, profile) of every start, in start order
    stop: str = ""  # why this start stopped: "converged", "rise" or "max_iters"
    starts: list = field(default_factory=list)  # {init, iterations, stop} of every start, in start order


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


def _rescaled(power, u):
    """u rescaled onto F = 1 by c = F(u)^{-1/p}, its g, the divisor h*c
    that turns ``power.gradient(g)`` into grad F there and c itself, from
    one evaluation at u: F(cu) = c^p F(u) and grad F(cu) = c^{p-1}
    grad F(u)."""
    h, g = power.value(u)
    if h <= 0.0:
        raise DomainError("cannot project the zero profile onto the constraint")
    c = h ** (-1.0 / power.p)
    return c * u, g, h * c, c


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
    power = _kernels.PowerWorkspace(forms.hs_weights, forms.hs_t, forms.p_crit)
    # the KKT solve and the step's buffers: r, u - s and the candidate,
    # formed anew every step of every start; the candidate's Dirichlet node
    # stays +0.0
    n, n_free = forms.n_nodes, factor.diag.shape[0]
    work = _kernels.TridiagonalSystem(n_free, 2), np.empty(n_free), np.empty(n), np.zeros(n)
    runs = [_descend(forms, lam, a, abs_a, factor, power, work, u0, tag, max_iters) for tag, u0 in zip(tags, inits)]
    best = min(runs, key=lambda res: res.mu_upper)
    best.concentration = _hs_concentration(forms, best.profile)
    best.iterations_total = sum(res.iterations for res in runs)
    best.finals = [(res.mu_upper, res.profile) for res in runs]
    best.starts = [{"init": res.init_tag, "iterations": res.iterations, "stop": res.stop} for res in runs]
    return best


def _shifted_factor(forms: QuadraticForms, lam: float):
    """The LDL^T factor on the free nodes of A = K - lam*Mass when
    A - 1e-8 (1 + |lam|) Mass is positive definite, else of
    K + (1 + |lam|) Mass."""
    c = 1.0 + abs(lam)
    d, e = forms.free(forms.kd - lam * forms.md, forms.ke - lam * forms.me)
    if not _kernels.definite_test(d, e, *forms.free(forms.md, forms.me))(1e-8 * c):
        with np.errstate(over="ignore"):  # only |lam| near the double range overflows
            d, e = forms.free(forms.kd + c * forms.md, forms.ke + c * forms.me)
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


def _newton(system, a_free, hess, coef, r, grad, v, out):
    """The Newton candidate v + d of the KKT system
    [[B, -grad], [grad', 0]] [d; delta] = [-r; 0], B = A - coef H, on the
    free nodes: d = -z1 + t z2 with B [z1 z2] = [r, grad] by one ``system``
    call and t = (grad' z1) / (grad' z2), formed in ``out``; None when B
    has an exactly zero pivot or grad' z2 = 0."""
    d = a_free[0] - coef * hess[0]
    e = a_free[1] - coef * hess[1]
    z = system(d, e, (r, grad))
    if z is None:
        return None
    z1, z2 = z
    den = float(np.dot(grad, z2))
    if den == 0.0:
        return None
    z2 *= float(np.dot(grad, z1)) / den
    np.subtract(v, z1, out=out)
    out += z2
    return out


def _descend(forms, lam, a, abs_a, factor, power, work, u0, tag, max_iters):
    sl = forms.dof
    p = forms.p_crit
    a_free = forms.free(*a)
    system, resid, step, cand = work
    u, g, hc, _ = _rescaled(power, forms.check_profile(np.asarray(u0, dtype=float).copy()))
    grad = power.gradient(g) / hc
    # at a huge lambda an energy, its rounding bound or gnorm may overflow;
    # each is read next: a start whose energy is not finite is refused, an
    # infinite energy later fails the rise test, an infinite rounding bound
    # declares no rise and an infinite gnorm is not converged
    with np.errstate(over="ignore"):
        au, q = _energy(a, u)
        if not math.isfinite(q):
            raise DomainError(f"the energy of start {tag} leaves the double range at lambda = {float(lam)!r}")
        best_q, best_u = math.inf, u
        gnorm = math.inf
        stop = "max_iters"
        iters = 0
        for iters in range(1, max_iters + 1):
            if q > best_q and q > best_q + _rounding(abs_a, best_u) + _rounding(abs_a, u):
                stop = "rise"
                break
            if q < best_q:
                best_q, best_u = q, u
            r = np.multiply(grad[sl], q / p, out=resid)
            np.subtract(au[sl], r, out=r)
            s = factor.solve(r)  # the factor's buffer
            gnorm = math.sqrt(max(float(np.dot(r, s)), 0.0)) / (1.0 + abs(q))
            if gnorm <= _GRAD_TOL:
                stop = "converged"
                break
            np.copyto(step, u)
            step[sl] -= s
            u, g, hc, c = _rescaled(power, step)
            au, q = _energy(a, u)
            grad = power.gradient(g) / hc
            # the Newton candidate at v = u: H(u) = c^{p-2} H(step) = H(step) / (h c^2)
            r = np.multiply(grad[sl], q / p, out=resid)
            np.subtract(au[sl], r, out=r)
            hess = forms.free(*power.hessian(step, g))
            x = _newton(system, a_free, hess, q * (p - 1.0) / (hc * c), r, grad[sl], u[sl], cand[sl])
            if x is not None and np.any(x):  # else no candidate, or none that can be rescaled
                x, x_g, x_hc, _ = _rescaled(power, cand)
                ax, qx = _energy(a, x)
                if qx <= q:
                    u, au, q = x, ax, qx
                    grad = power.gradient(x_g) / x_hc

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
        concentration=math.nan,  # computed for the best start only
        converged=gnorm <= _GRAD_TOL,
        stop=stop,
    )


def _hs_concentration(forms: QuadraticForms, u: np.ndarray) -> float:
    """Share of the constraint integral in the cells whose inner node lies
    within radius _CORE*r_max."""
    k = int(np.searchsorted(forms.grid.nodes[:-1], _CORE * forms.grid.r_max, side="right"))
    inner = _kernels.power_moment(u[: k + 1], forms.hs_weights[:k], forms.hs_t, forms.p_crit)
    return inner / hs_functional(forms, u)
