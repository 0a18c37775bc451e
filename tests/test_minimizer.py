import dataclasses
import math

import numpy as np
import pytest

from hardylab.bubble import bubble_moments
from hardylab.constants import hardy_sobolev_constant
from hardylab.errors import DomainError
from hardylab.forms import assemble_forms, build_grid, evaluate_quotient, hs_functional
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


@pytest.mark.parametrize("lam,kappa", [(-1.0, 1.0), (0.5, 1.5), (0.0, 1.0)])
def test_shift_branch(sphere4_forms, lam, kappa):
    # A = K - lam*Mass is factored itself when definite; on the full sphere
    # it is indefinite at lam = 0.5 and singular (constant mode) at lam = 0,
    # and then K + (1 + |lam|) Mass is factored; kappa is the Mass multiple
    f = sphere4_forms
    got = _shifted_factor(f, lam)
    want = ldl_factor(f.kd + kappa * f.md, f.ke + kappa * f.me)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_singular_leading_block_takes_shifted_branch(ball3_forms):
    # A = K is definite on the Dirichlet ball at lam = 0; with K[0, 0] set to
    # 1e-8 * Mass[0, 0] the leading 1x1 block of A - 1e-8 Mass is exactly
    # zero, which reads as not definite, so K + Mass is factored (the branch
    # that is safe for every lam)
    kd = ball3_forms.kd.copy()
    kd[0] = 1e-8 * ball3_forms.md[0]
    f = dataclasses.replace(ball3_forms, kd=kd)
    assert f.kd[0] - 1e-8 * f.md[0] == 0.0
    n = f.dof.stop
    for forms, kappa in [(ball3_forms, 0.0), (f, 1.0)]:  # kappa: the Mass multiple
        got = _shifted_factor(forms, 0.0)
        want = ldl_factor((forms.kd + kappa * forms.md)[:n], (forms.ke + kappa * forms.me)[: n - 1])
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


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
    # 34-39 steps per start with mixing, 722-729 without
    forms = assemble_forms(build_grid(1.0, 256, 2.0, "dirichlet"), euclidean_ball(3, 1.0), 1.0)
    runs = [minimize_quotient(forms, 0.0, inits=[u0]) for u0 in _starts(forms)]
    assert all(res.converged and res.iterations <= 100 for res in runs)
    assert minimize_quotient(forms, 0.0).iterations_total == sum(res.iterations for res in runs)


@pytest.mark.parametrize(
    "N,lam,sigma,M",
    [(4, -1.0, 1.0, 32), (4, -1.0, 1.0, 64), (5, -0.5, 0.5, 32), (4, 0.5, 1.0, 64)],
)
def test_mixing_matches_plain_step(N, lam, sigma, M, monkeypatch):
    # the cases of test_matches_projected_gradient_values, with depth 0
    # (every step the plain inverse-power step) against the mixed run
    m = unit_sphere(N)
    forms = assemble_forms(build_grid(m.r_max, M, 2.0, "reflected"), m, sigma)
    mixed = minimize_quotient(forms, lam)
    monkeypatch.setattr(minimizer, "_DEPTH", 0)
    plain = minimize_quotient(forms, lam)
    assert mixed.converged and plain.converged
    assert mixed.mu_upper == pytest.approx(plain.mu_upper, rel=1e-9)
    assert mixed.iterations_total <= plain.iterations_total


def test_mixing_skips_dependent_differences():
    # equal columns of dF make the normal equations singular: no candidate
    rng = np.random.default_rng(3)
    g, f, d = rng.random(8), rng.random(8), rng.random(8)
    assert not np.any(minimizer._mixed(g, f, [d, d], [d, d]))
    # independent columns: the least-squares combination, made non-negative
    d_u, d_f = [rng.random(8), rng.random(8)], [rng.random(8), rng.random(8)]
    df = np.column_stack(d_f)
    gamma = np.linalg.lstsq(df, f, rcond=None)[0]
    want = np.abs(g - (np.column_stack(d_u) + df) @ gamma)
    np.testing.assert_allclose(minimizer._mixed(g, f, d_u, d_f), want, rtol=1e-12)


@pytest.mark.parametrize(
    "forms,lam",
    [
        (assemble_forms(build_grid(1.0, 64, 2.0, "dirichlet"), euclidean_ball(3, 1.0), 1.0), 0.0),
        (assemble_forms(build_grid(math.pi, 32, 2.0, "reflected"), unit_sphere(4), 1.0), -1.0),
    ],
    ids=["flat-ball-64", "S4-32"],
)
def test_counters_match_kernel_calls(forms, lam, monkeypatch):
    # every F / grad F evaluation and every preconditioner solve goes
    # through _kernels; a step makes one solve and at most two evaluations
    calls = {"F": 0, "solve": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(_kernels, "power_moment", counted("F", _kernels.power_moment))
    monkeypatch.setattr(_kernels, "power_moment_grad", counted("F", _kernels.power_moment_grad))
    monkeypatch.setattr(_kernels, "ldl_solve", counted("solve", _kernels.ldl_solve))
    res = minimize_quotient(forms, lam)
    assert res.converged
    assert res.evaluations == calls["F"] <= 2 * res.iterations_total
    assert res.solves == calls["solve"] == res.iterations_total
