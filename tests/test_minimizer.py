import dataclasses
import math

import numpy as np
import pytest
from test_kernels import kernel_calls

from hardylab.bubble import bubble_moments
from hardylab.constants import hardy_sobolev_constant
from hardylab.errors import DomainError
from hardylab.forms import assemble_forms, build_grid, evaluate_quotient, hs_functional, tri_matvec, tri_quadform
from hardylab.manifold import euclidean_ball, unit_sphere
from hardylab import _kernels, minimizer
from hardylab._kernels import ldl_factor
from hardylab.minimizer import _shifted_factor, bubble_init, constant_init, minimize_quotient


@pytest.fixture(scope="module")
def sphere4_forms():
    return assemble_forms(build_grid(math.pi, 512, 2.0, "reflected"), unit_sphere(4), 1.0)


@pytest.fixture(scope="module")
def ball3_forms():
    return assemble_forms(build_grid(1.0, 512, 2.0, "dirichlet"), euclidean_ball(3, 1.0), 1.0)


def test_bubble_init_values(sphere4_forms):
    u = bubble_init(sphere4_forms, 1.0)
    assert u[0] == pytest.approx(1.0)  # w(0) = 1, eta(0) = 1
    r = sphere4_forms.grid.nodes
    r_cut = sphere4_forms.grid.r_max / 2.0
    assert np.all(u[r >= 2.0 * r_cut - 1e-12] == 0.0)


def test_bubble_init_cutoff_validation(ball3_forms):
    with pytest.raises(DomainError):
        bubble_init(ball3_forms, 4.0, r_cut=0.8)  # 2*0.8 > 1
    with pytest.raises(DomainError):
        bubble_init(ball3_forms, 4.0, r_cut=0.0)  # empty cutoff support
    with pytest.raises(DomainError):
        bubble_init(ball3_forms, 0.5)


def test_bubble_init_constraint_limit():
    # hs(eta w_n) approaches the flat moment integral as n grows
    ball = euclidean_ball(5, 2.0)
    forms = assemble_forms(build_grid(2.0, 2048, 2.0, "dirichlet"), ball, 1.0)
    want = bubble_moments(5, 1.0).hs_mass.value
    got = hs_functional(forms, bubble_init(forms, 32.0))
    assert got == pytest.approx(want, rel=0.02)


def test_constant_init_at_lambda0_gives_zero(sphere4_forms):
    # the constant is the exact minimizer; what survives is stiffness
    # row-sum roundoff accumulated at the graded grid's 1/h^2 scale
    res = minimize_quotient(sphere4_forms, 0.0, inits=[constant_init(sphere4_forms)], max_iters=50)
    assert abs(res.mu_upper) < 1e-9


def test_minimize_requires_sigma_lt_2():
    forms2 = assemble_forms(build_grid(1.0, 64, 2.0, "dirichlet"), euclidean_ball(3, 1.0), 2.0)
    with pytest.raises(DomainError):
        minimize_quotient(forms2, 0.0)


def test_minimize_needs_an_init(sphere4_forms):
    with pytest.raises(DomainError):
        minimize_quotient(sphere4_forms, 0.0, inits=[])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("M,reason", [(16, r"K - lambda\*Mass overflows"), (64, "energy of start constant")])
@pytest.mark.parametrize("lam", [1e308, 1.7e308, -1e308])
def test_huge_lambda_is_refused_without_overflow_warnings(M, reason, lam):
    # at M = 16 K - lam*Mass itself overflows; at M = 64 it is finite but
    # the constant start's energy u'Au is not.  Either is a DomainError, and
    # no numpy overflow warning comes first
    forms = assemble_forms(build_grid(math.pi, M, 2.0, "reflected"), unit_sphere(4), 1.0)
    with pytest.raises(DomainError, match=reason):
        minimize_quotient(forms, lam)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_huge_lambda_converges_without_overflow_warnings():
    # at lambda = 1e307 the early steps' r's and |u|'|A||u| overflow; an
    # infinite gnorm is not converged and an infinite rounding bound
    # declares no rise, so the run still ends at a finite bound
    forms = assemble_forms(build_grid(math.pi, 64, 2.0, "reflected"), unit_sphere(3), 1.0)
    res = minimize_quotient(forms, 1e307)
    assert res.converged
    assert res.mu_upper == pytest.approx(-5.04e307, rel=1e-3)


def test_huge_finite_lambda_still_solves():
    # at lambda = 1e300 every energy stays finite: a valid, finite bound
    forms = assemble_forms(build_grid(math.pi, 64, 2.0, "reflected"), unit_sphere(4), 1.0)
    res = minimize_quotient(forms, 1e300)
    assert math.isfinite(res.mu_upper) and math.isfinite(res.grad_norm)


def test_constraint_maintained(sphere4_forms):
    res = minimize_quotient(sphere4_forms, -1.0, max_iters=120)
    assert hs_functional(sphere4_forms, res.profile) == pytest.approx(1.0, abs=1e-10)


def test_result_quotient_consistency(sphere4_forms):
    res = minimize_quotient(sphere4_forms, -1.0, max_iters=120)
    assert evaluate_quotient(sphere4_forms, res.profile, -1.0) == pytest.approx(
        res.mu_upper, abs=1e-10
    )


def test_best_over_inits(sphere4_forms):
    inits = [constant_init(sphere4_forms), bubble_init(sphere4_forms, 8.0)]
    best = minimize_quotient(sphere4_forms, -1.0, inits=inits, max_iters=200)
    for u0 in inits:
        assert best.mu_upper <= evaluate_quotient(sphere4_forms, u0, -1.0) + 1e-12
        single = minimize_quotient(sphere4_forms, -1.0, inits=[u0], max_iters=200)
        assert best.mu_upper <= single.mu_upper + 1e-9


def test_descent_below_sharp_constant_on_sphere(sphere4_forms):
    res = minimize_quotient(sphere4_forms, -1.0)
    assert res.mu_upper < hardy_sobolev_constant(4, 1.0)
    assert np.all(res.profile >= 0.0)


def test_flat_floor(ball3_forms):
    # on the flat ball at lambda=0 the discrete value cannot drop below the
    # sharp constant (zero-extension argument); concentrating inits land
    # just above it
    s31 = hardy_sobolev_constant(3, 1.0)
    res = minimize_quotient(ball3_forms, 0.0, inits=[bubble_init(ball3_forms, 16.0)])
    assert res.mu_upper >= s31 - 1e-3
    assert res.mu_upper <= s31 * 1.2


def test_energy_monotonicity_via_budget(sphere4_forms):
    # longer budgets never worsen the best value, on A = K - lam*Mass itself
    # (lam = -1, where descent is proved) and on the shifted operator
    # (lam = 0.5, where A is indefinite on the full sphere); the runs return
    # their lowest iterate, so a strict drop from budget k to k + 1 shows
    # that the k-th step lowered Q
    for lam in (-1.0, 0.5):
        vals = []
        for iters in (1, 2, 3, 4, 5, 25, 125):
            res = minimize_quotient(
                sphere4_forms, lam, inits=[bubble_init(sphere4_forms, 8.0)], max_iters=iters
            )
            vals.append(res.mu_upper)
        assert all(a > b for a, b in zip(vals[:4], vals[1:5]))
        assert vals[4] >= vals[5] >= vals[6]


def _same_factor(got, want):
    """Pivots and multipliers bit for bit."""
    return (got.diag.tobytes(), got.low.tobytes()) == (want.diag.tobytes(), want.low.tobytes())


@pytest.mark.parametrize("lam,kappa", [(-1.0, 1.0), (0.5, 1.5), (0.0, 1.0)])
def test_shift_branch(sphere4_forms, lam, kappa):
    # A = K - lam*Mass is factored itself when definite; on the full sphere
    # it is indefinite at lam = 0.5 and singular (constant mode) at lam = 0,
    # and then K + (1 + |lam|) Mass is factored; kappa is the Mass multiple
    f = sphere4_forms
    got = _shifted_factor(f, lam)
    want = ldl_factor(f.kd + kappa * f.md, f.ke + kappa * f.me)
    assert _same_factor(got, want)


def test_singular_leading_block_takes_shifted_branch(ball3_forms):
    # A = K is definite on the Dirichlet ball at lam = 0; with K[0, 0] set to
    # 1e-8 * Mass[0, 0] and node 0 cut loose from K, the leading 1x1 block
    # of A - 1e-8 Mass is exactly zero, which reads as not definite, so the
    # definite K + Mass is factored (the branch that is safe for every lam)
    kd, ke = ball3_forms.kd.copy(), ball3_forms.ke.copy()
    kd[0], ke[0] = 1e-8 * ball3_forms.md[0], 0.0
    f = dataclasses.replace(ball3_forms, kd=kd, ke=ke)
    assert f.kd[0] - 1e-8 * f.md[0] == 0.0
    n = f.dof.stop
    free = (f.kd[:n], f.ke[: n - 1], f.md[:n], f.me[: n - 1])
    assert not _kernels.definite_test(*free)(1e-8) and _kernels.definite_test(*free)(-1.0)
    for forms, kappa in [(ball3_forms, 0.0), (f, 1.0)]:  # kappa: the Mass multiple
        got = _shifted_factor(forms, 0.0)
        want = ldl_factor((forms.kd + kappa * forms.md)[:n], (forms.ke + kappa * forms.me)[: n - 1])
        assert _same_factor(got, want)


@pytest.mark.parametrize(
    "N,lam,sigma,M,seed_value",
    [
        (4, -1.0, 1.0, 32, 3.433614535822),
        (4, -1.0, 1.0, 64, 3.433242636385),
        (5, -0.5, 0.5, 32, 1.777465176254),
        (4, 0.5, 1.0, 64, -1.871855211042),
    ],
)
def test_matches_projected_gradient_values(N, lam, sigma, M, seed_value):
    # values of the projected gradient descent that preceded the
    # inverse-power iteration; the last case is the indefinite (shifted) one
    m = unit_sphere(N)
    forms = assemble_forms(build_grid(m.r_max, M, 2.0, "reflected"), m, sigma)
    res = minimize_quotient(forms, lam)
    assert res.converged
    assert res.mu_upper == pytest.approx(seed_value, rel=1e-8)


def test_nonconverged_flag_is_honest(sphere4_forms):
    res = minimize_quotient(
        sphere4_forms, -1.0, inits=[bubble_init(sphere4_forms, 2.0)], max_iters=3
    )
    assert not res.converged
    assert res.iterations == 3


def _starts(forms):
    return [constant_init(forms)] + [bubble_init(forms, n) for n in (2.0, 8.0, 32.0)]


def test_flat_ball_converges_from_every_start():
    # lambda = 0 on the flat ball concentrates; the plain inverse-power step
    # converges linearly there and used up the 800-step budget at M = 1024
    forms = assemble_forms(build_grid(1.0, 1024, 2.0, "dirichlet"), euclidean_ball(3, 1.0), 1.0)
    for u0 in _starts(forms):
        res = minimize_quotient(forms, 0.0, inits=[u0])
        assert res.converged and res.iterations < 800
        assert res.mu_upper == pytest.approx(2.8987628382, rel=1e-8)


def test_mixing_cuts_flat_ball_steps():
    # 10-12 steps per start with the Newton candidate, 722-729 with the
    # plain inverse-power step alone
    forms = assemble_forms(build_grid(1.0, 256, 2.0, "dirichlet"), euclidean_ball(3, 1.0), 1.0)
    runs = [minimize_quotient(forms, 0.0, inits=[u0]) for u0 in _starts(forms)]
    assert all(res.converged and res.iterations <= 20 for res in runs)
    assert minimize_quotient(forms, 0.0).iterations_total == sum(res.iterations for res in runs)


def test_one_kkt_binding_per_call(monkeypatch):
    # the four starts of a call share one bound dgtsv and one set of step buffers
    bindings = []
    bind = _kernels.TridiagonalSystem
    monkeypatch.setattr(_kernels, "TridiagonalSystem", lambda n, nrhs: bindings.append((n, nrhs)) or bind(n, nrhs))
    for m, bc, n_free in ((unit_sphere(4), "reflected", 33), (euclidean_ball(3, 1.0), "dirichlet", 32)):
        res = minimize_quotient(assemble_forms(build_grid(m.r_max, 32, 2.0, bc), m, 1.0), -1.0)
        assert len(res.starts) == 4
    assert bindings == [(33, 2), (32, 2)]


def _kkt_case(forms, lam, u0):
    """One step's point v = G(u0) on F = 1, with what the Newton candidate
    is built from: A on every node, the unscaled step y, its g, h c and c,
    q = Q(v) and grad F(v)."""
    a = (forms.kd - lam * forms.md, forms.ke - lam * forms.me)
    power = _kernels.PowerWorkspace(forms.hs_weights, forms.hs_t, forms.p_crit)
    u, g, hc, _ = minimizer._rescaled(power, u0)
    grad = power.gradient(g) / hc
    au = tri_matvec(*a, u)
    q = float(np.dot(u, au))
    r = (au - (q / forms.p_crit) * grad)[forms.dof]
    y = u.copy()
    y[forms.dof] -= minimizer._shifted_factor(forms, lam).solve(r)
    v, g, hc, c = minimizer._rescaled(power, y)
    return a, power, y, v, g, hc, c, float(np.dot(v, tri_matvec(*a, v))), power.gradient(g) / hc


def _dense(d, e):
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


@pytest.mark.parametrize(
    "manifold,bc,M,sigma,lam",
    [
        (unit_sphere(4), "reflected", 32, 1.0, -1.0),
        (unit_sphere(5), "reflected", 16, 0.5, -0.5),
        (euclidean_ball(3, 1.0), "dirichlet", 32, 1.0, 0.0),
        (unit_sphere(4), "reflected", 24, 1.0, 0.5),  # A indefinite
    ],
    ids=["S4-32", "S5-16-sigma-0.5", "flat-ball-32", "S4-24-indefinite"],
)
def test_newton_candidate_solves_the_bordered_kkt_system(manifold, bc, M, sigma, lam):
    # v - z1 + t z2 is v + d for the solution (d, delta) of the dense
    # bordered system [[B, -grad F], [grad F', 0]] [d; delta] = [-r; 0],
    # B = A - Q(v) (p - 1) H(v), H from w |v|^{p-2} at the Gauss points
    forms = assemble_forms(build_grid(manifold.r_max, M, 2.0, bc), manifold, sigma)
    p, sl = forms.p_crit, forms.dof
    n = sl.stop
    for u0 in _starts(forms):
        a, power, y, v, g, hc, c, q, grad = _kkt_case(forms, lam, u0)
        r = (tri_matvec(*a, v) - (q / p) * grad)[sl]
        got = minimizer._newton(
            _kernels.TridiagonalSystem(n, 2),
            forms.free(*a),
            forms.free(*power.hessian(y, g)),
            q * (p - 1.0) / (hc * c),
            r,
            grad[sl],
            v[sl],
            np.empty(n),
        )
        # H from its definition, on the points of v itself
        t, w = forms.hs_t, forms.hs_weights
        pts = np.outer(v[:-1], 1.0 - t) + np.outer(v[1:], t)
        s = w * np.abs(pts) ** (p - 2.0)
        hd, he = np.zeros(forms.n_nodes), s @ ((1.0 - t) * t)
        hd[:-1] += s @ (1.0 - t) ** 2
        hd[1:] += s @ t**2
        b = _dense(a[0][:n], a[1][: n - 1]) - q * (p - 1.0) * _dense(hd[:n], he[: n - 1])
        kkt = np.block([[b, -grad[sl, None]], [grad[None, sl], np.zeros((1, 1))]])
        want = v[sl] + np.linalg.solve(kkt, np.concatenate([-r, [0.0]]))[:n]
        # in the L^2 norm of the P1 profiles (Mass): the KKT matrix's
        # condition number is about 1e7 on the graded spheres, and both
        # solvers' forward errors against a 40-digit solve reach 1e-10 of
        # max|want| at node 0, whose row carries the volume factor r^{N-1}
        md, me = forms.free(forms.md, forms.me)
        assert tri_quadform(md, me, got - want) <= 1e-24 * tri_quadform(md, me, want)


@pytest.mark.parametrize(
    "forms,lam",
    [
        (assemble_forms(build_grid(1.0, 64, 2.0, "dirichlet"), euclidean_ball(3, 1.0), 1.0), 0.0),
        (assemble_forms(build_grid(math.pi, 32, 2.0, "reflected"), unit_sphere(4), 1.0), -1.0),
    ],
    ids=["flat-ball-64", "S4-32"],
)
def test_counters_match_kernel_calls(forms, lam, monkeypatch):
    # every F evaluation and every preconditioner solve goes through
    # _kernels; a step makes one solve and at most two evaluations (G(u)
    # and the Newton candidate), and each start one more at its start and
    # one for its result, and the winner two for its concentration
    calls = {"F": 0, "solve": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(_kernels, "power_moment", counted("F", _kernels.power_moment))
    monkeypatch.setattr(_kernels.PowerWorkspace, "value", counted("F", _kernels.PowerWorkspace.value))
    monkeypatch.setattr(_kernels.LDLFactor, "solve", counted("solve", _kernels.LDLFactor.solve))
    with kernel_calls() as tally:
        res = minimize_quotient(forms, lam)
    assert res.converged
    assert tally["evaluations"] == calls["F"] <= 2 * res.iterations_total + 2
    assert tally["solves"] == calls["solve"] == res.iterations_total


@pytest.mark.parametrize(
    "sigma,N,lam,max_iters,zero_bound,stops",
    [
        (1.0, 4, -1.0, 800, False, {"converged"}),
        (1.0, 4, -1.0, 3, False, {"max_iters"}),
        (0.5, 6, -0.5, 200, True, {"rise"}),
    ],
    ids=["converged", "max_iters", "rise"],
)
def test_gradient_only_for_the_iterate_kept(sigma, N, lam, max_iters, zero_bound, stops, monkeypatch):
    # grad F is formed at the start, at G(u) on every step taken (the
    # Newton system needs it), and at the Newton candidate only when the
    # step keeps it, Q(candidate) <= Q(G(u)): 1 + steps + kept per start,
    # steps = iterations - [stop != "max_iters"], since a start that
    # converges or rises stops before its last step.  The "rise" case runs
    # at a zero gradient tolerance and a zero rounding bound, so each start
    # steps on until Q rises by rounding
    m = unit_sphere(N)
    forms = assemble_forms(build_grid(m.r_max, 32, 2.0, "reflected"), m, sigma)
    formed, energies, per_start = [], [], []
    gradient, rescaled, energy, descend = (
        _kernels.PowerWorkspace.gradient,
        minimizer._rescaled,
        minimizer._energy,
        minimizer._descend,
    )
    candidate_gs = []  # kept alive, so no other g can take one's id

    def counted_rescaled(power, u, *args):
        out = rescaled(power, u, *args)
        if u is candidate[0]:
            candidate_gs.append(out[1])
            energies.append("candidate")
        return out

    def counted_energy(a, u):
        au, q = energy(a, u)
        energies.append(q)
        return au, q

    def counted_descend(*args):
        candidate[:] = [args[6][3]]  # the candidate buffer of the call's work
        formed.clear()
        energies.clear()
        res = descend(*args)
        # q of each G(u) and of the candidate that follows it
        pairs = [(energies[i - 1], energies[i + 1]) for i, e in enumerate(energies) if e == "candidate"]
        kept = sum(qx <= qv for qv, qx in pairs)
        at_candidates = sum(formed)
        per_start.append((len(formed) - at_candidates, at_candidates, kept, res.iterations, res.stop))
        return res

    candidate = [None]
    monkeypatch.setattr(_kernels.PowerWorkspace, "gradient", lambda power, g: formed.append(any(g is x for x in candidate_gs)) or gradient(power, g))
    monkeypatch.setattr(minimizer, "_rescaled", counted_rescaled)
    monkeypatch.setattr(minimizer, "_energy", counted_energy)
    monkeypatch.setattr(minimizer, "_descend", counted_descend)
    if zero_bound:
        monkeypatch.setattr(minimizer, "_rounding", lambda abs_a, u: 0.0)
        monkeypatch.setattr(minimizer, "_GRAD_TOL", 0.0)
    minimize_quotient(forms, lam, max_iters=max_iters)
    assert len(per_start) == 4 and {stop for *_, stop in per_start} == stops
    for at_steps, at_candidates, kept, iterations, stop in per_start:
        assert at_steps == 1 + iterations - (stop != "max_iters")
        assert at_candidates == kept
    assert sum(kept for _, _, kept, _, _ in per_start) > 0
