import math

import numpy as np
import pytest
import scipy.linalg

from hardylab.eigensolver import inertia_count, smallest_generalized_eigen
from hardylab.errors import DomainError
from hardylab.forms import assemble_forms, build_grid
from hardylab.manifold import euclidean_ball, unit_sphere


def test_inertia_trivial_brackets():
    rng = np.random.default_rng(3)
    n = 50
    d = rng.standard_normal(n) * 2
    e = rng.standard_normal(n - 1) * 0.5
    w = np.abs(rng.standard_normal(n)) + 0.1
    gersh = np.abs(d) / w + 2 * np.max(np.abs(e)) / np.min(w)
    big = float(np.max(gersh)) + 1.0
    assert inertia_count(d, e, w, -big) == 0
    assert inertia_count(d, e, w, big) == n


def test_inertia_identity_jump():
    n = 17
    d = np.ones(n)
    e = np.zeros(n - 1)
    w = np.ones(n)
    assert inertia_count(d, e, w, 1.0 - 1e-12) == 0
    assert inertia_count(d, e, w, 1.0 + 1e-12) == n


def test_inertia_matches_dense_count():
    rng = np.random.default_rng(5)
    n = 40
    d = rng.standard_normal(n)
    e = rng.standard_normal(n - 1)
    w = np.abs(rng.standard_normal(n)) + 0.2
    evals = scipy.linalg.eigh_tridiagonal(d / w, e / np.sqrt(w[:-1] * w[1:]), eigvals_only=True)
    for shift in (-2.0, -0.3, 0.1, 1.7):
        assert inertia_count(d, e, w, shift) == int(np.sum(evals < shift))


def test_inertia_matches_dense_count_tridiagonal_weight():
    rng = np.random.default_rng(6)
    n = 40
    d = rng.standard_normal(n)
    e = rng.standard_normal(n - 1)
    wd = np.abs(rng.standard_normal(n)) + 2.0
    we = 0.5 * rng.standard_normal(n - 1)  # diagonally dominant, so W is definite
    a = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    b = np.diag(wd) + np.diag(we, 1) + np.diag(we, -1)
    evals = scipy.linalg.eigh(a, b, eigvals_only=True)
    for shift in (-2.0, -0.3, 0.1, 1.7):
        assert inertia_count(d, e, wd, shift, we) == int(np.sum(evals < shift))


def test_inertia_retries_exact_zero_pivot():
    # every pivot of I - 1*I is exactly zero; the retry nudges the shift up
    n = 5
    assert inertia_count(np.ones(n), np.zeros(n - 1), np.ones(n), 1.0) == n


def test_inertia_rejects_bad_weight():
    with pytest.raises(DomainError):
        inertia_count(np.ones(4), np.zeros(3), np.array([1.0, -1.0, 1.0, 1.0]), 0.0)


def test_smallest_eigen_against_scipy():
    ball = euclidean_ball(3, 1.0)
    forms = assemble_forms(build_grid(1.0, 200, 2.0, "dirichlet"), ball, 2.0)
    res = smallest_generalized_eigen(forms, -0.7)
    sl = forms.dof
    d = (forms.kd + 0.7 * forms.md)[sl]
    e = (forms.ke + 0.7 * forms.me)[: d.shape[0] - 1]
    w = forms.w2[sl]
    evals = scipy.linalg.eigh_tridiagonal(
        d / w, e / np.sqrt(w[:-1] * w[1:]), eigvals_only=True, select="i", select_range=(0, 0)
    )
    assert res.mu == pytest.approx(float(evals[0]), abs=1e-9)


def test_laplacian_sanity_pi_squared():
    # plain mass denominator: radial Dirichlet Laplacian on the unit ball in
    # three dimensions has ground value pi^2 (profile sin(pi r)/r)
    ball = euclidean_ball(3, 1.0)
    mus = []
    for M in (256, 512, 1024):
        forms = assemble_forms(build_grid(1.0, M, 2.0, "dirichlet"), ball, 2.0)
        mus.append(smallest_generalized_eigen(forms, 0.0, denominator="mass").mu)
    assert mus[-1] == pytest.approx(math.pi**2, rel=1e-5)
    assert mus[0] >= mus[1] >= mus[2]


def test_full_sphere_constant_mode():
    s3 = unit_sphere(3)
    forms = assemble_forms(build_grid(math.pi, 256, 2.0, "reflected"), s3, 2.0)
    res = smallest_generalized_eigen(forms, 0.0)
    assert abs(res.mu) < 1e-10
    spread = np.max(res.profile) - np.min(res.profile)
    assert spread < 1e-7 * np.max(np.abs(res.profile))


def test_bisection_inertia_consistency():
    s3 = unit_sphere(3)
    forms = assemble_forms(build_grid(math.pi, 512, 2.0, "reflected"), s3, 2.0)
    res = smallest_generalized_eigen(forms, -1.0)
    sl = forms.dof
    d = (forms.kd + 1.0 * forms.md)[sl]
    e = (forms.ke + 1.0 * forms.me)[: d.shape[0] - 1]
    w = forms.w2[sl]
    assert inertia_count(d, e, w, res.mu - 1e-8) == 0
    assert inertia_count(d, e, w, res.mu + 1e-8) >= 1


def test_mu_strictly_decreasing_in_lambda():
    s3 = unit_sphere(3)
    forms = assemble_forms(build_grid(math.pi, 512, 2.0, "reflected"), s3, 2.0)
    lams = [-3.0, -1.0, -0.3, 0.0, 0.4, 1.2]
    mus = [smallest_generalized_eigen(forms, lam).mu for lam in lams]
    assert all(a > b for a, b in zip(mus, mus[1:]))


def test_refinement_monotonicity():
    s3 = unit_sphere(3)
    mus = []
    for M in (256, 512, 1024):
        forms = assemble_forms(build_grid(math.pi, M, 2.0, "reflected"), s3, 2.0)
        mus.append(smallest_generalized_eigen(forms, -1.0).mu)
    assert mus[0] >= mus[1] >= mus[2]


def test_residual_tolerance_and_normalization():
    ball = euclidean_ball(4, 1.0)
    forms = assemble_forms(build_grid(1.0, 512, 2.0, "dirichlet"), ball, 2.0)
    res = smallest_generalized_eigen(forms, -2.0)
    assert res.residual <= 1e-9
    u = res.profile[forms.dof]
    assert float(np.dot(forms.w2[forms.dof], u * u)) == pytest.approx(1.0, rel=1e-10)


def test_every_profile_bounds_the_discrete_minimum():
    from hardylab.forms import evaluate_quotient

    s3 = unit_sphere(3)
    forms = assemble_forms(build_grid(math.pi, 256, 2.0, "reflected"), s3, 2.0)
    res = smallest_generalized_eigen(forms, -0.5)
    rng = np.random.default_rng(9)
    for _ in range(12):
        u = rng.standard_normal(forms.n_nodes)
        assert evaluate_quotient(forms, u, -0.5, sigma=2.0) >= res.mu - 1e-9


def test_warm_start_consistency():
    s3 = unit_sphere(3)
    forms = assemble_forms(build_grid(math.pi, 512, 2.0, "reflected"), s3, 2.0)
    cold = smallest_generalized_eigen(forms, -0.8)
    warm = smallest_generalized_eigen(forms, -0.81, warm=cold.profile[forms.dof])
    assert warm.mu == pytest.approx(smallest_generalized_eigen(forms, -0.81).mu, abs=1e-9)
