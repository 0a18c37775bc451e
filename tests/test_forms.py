import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hardylab.constants import hardy_sobolev_constant, sphere_area
from hardylab.errors import DomainError
from hardylab.eigensolver import smallest_generalized_eigen
from hardylab.forms import (
    _GAUSS_ORDER,
    _cell_points,
    _first_cell,
    assemble_forms,
    build_grid,
    evaluate_quotient,
    hs_functional,
    hs_gradient,
    refine_grid,
    tri_quadform,
)
from hardylab.manifold import euclidean_ball, hyperbolic_cap, unit_sphere
from hardylab.minimizer import bubble_init, minimize_quotient


def test_free_restricts_a_tridiagonal_to_the_free_nodes():
    # Dirichlet drops the boundary node, the reflected condition keeps all 17
    for m, bc, n in ((euclidean_ball(3, 1.0), "dirichlet", 16), (unit_sphere(3), "reflected", 17)):
        forms = assemble_forms(build_grid(m.r_max, 16, 2.0, bc), m, 2.0)
        for d, e in ((forms.kd, forms.ke), (forms.md, forms.me)):
            free_d, free_e = forms.free(d, e)
            assert np.array_equal(free_d, d[:n]) and np.array_equal(free_e, e[: n - 1])
            assert (free_d.shape, free_e.shape) == ((n,), (n - 1,))


def test_build_grid_uniform_and_graded():
    g = build_grid(1.0, 8, 1.0, "dirichlet")
    assert np.allclose(g.nodes, np.linspace(0, 1, 9))
    g2 = build_grid(1.0, 8, 2.0, "dirichlet")
    assert g2.nodes[1] == pytest.approx(1.0 / 64)
    assert g2.nodes[0] == 0.0


def test_grid_nesting():
    g = build_grid(2.0, 16, 2.0, "reflected")
    fine = refine_grid(g)
    # every coarse node appears among the fine nodes
    for r in g.nodes:
        assert np.min(np.abs(fine.nodes - r)) < 1e-14


def test_build_grid_validation():
    with pytest.raises(DomainError):
        build_grid(1.0, 4, 2.0, "dirichlet")
    with pytest.raises(DomainError):
        build_grid(1.0, 16, 5.0, "dirichlet")
    with pytest.raises(DomainError):
        build_grid(1.0, 16, 2.0, "clamped")


def test_w2_closed_form_on_constant():
    # euclidean N=3: the sigma=2 weight integrates r^{N-3} = 1, so the
    # quadratic form on the constant equals |S^2| * r_max
    ball = euclidean_ball(3, 1.0)
    grid = build_grid(1.0, 64, 2.0, "reflected")
    forms = assemble_forms(grid, ball, 2.0)
    ones = np.ones(forms.n_nodes)
    got = float(np.dot(forms.w2, ones * ones))
    assert got == pytest.approx(sphere_area(2) * 1.0, rel=1e-10)
    # general N: integral r_max^{N-2}/(N-2)
    for n in (4, 6):
        ball_n = euclidean_ball(n, 1.5)
        forms_n = assemble_forms(build_grid(1.5, 64, 2.0, "reflected"), ball_n, 2.0)
        ones_n = np.ones(forms_n.n_nodes)
        want = sphere_area(n - 1) * 1.5 ** (n - 2) / (n - 2)
        assert float(np.dot(forms_n.w2, ones_n**2)) == pytest.approx(want, rel=1e-10)
    # curved: |S^{N-1}| int_0^R psi^{N-1} / r^2 dr, from a 30-digit quadrature of the warp
    mp = pytest.importorskip("mpmath")
    for m, warp in ((unit_sphere(3), mp.sin), (unit_sphere(5), mp.sin), (hyperbolic_cap(3, 1.0, 1.0), mp.sinh)):
        forms_m = assemble_forms(build_grid(m.r_max, 64, 2.0, "reflected"), m, 2.0)
        with mp.workdps(30):
            integral = mp.quad(lambda r: warp(r) ** (m.N - 1) / r**2, [0, m.r_max])
        want = sphere_area(m.N - 1) * float(integral)
        assert float(forms_m.w2.sum()) == pytest.approx(want, rel=1e-10), (m.kind, m.N)


def _tables_reference(forms, warp):
    """K, Mass and the lumped W2 of ``forms`` to 30 digits (mpmath): the
    cells' moments of |S^{N-1}| psi^{N-1} against the hat products and of
    |S^{N-1}| psi^{N-1} r^-2 against the hats, by 24-point Gauss-Legendre on
    each cell of the float grid, where every integrand is analytic."""
    mp = pytest.importorskip("mpmath")
    n = forms.manifold.N
    with mp.workdps(30):
        x, w = mp.gauss_quadrature(24, "legendre")
        om = 2 * mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2)
        cells = []
        for a, b in zip(map(mp.mpf, forms.grid.nodes[:-1]), map(mp.mpf, forms.grid.nodes[1:])):
            h = b - a
            mom = [mp.mpf(0)] * 6
            for xi, wi in zip(x, w):
                t = (xi + 1) / 2
                r = a + h * t
                v = om * wi * h / 2 * warp(r) ** (n - 1)
                for j, f in enumerate((1, (1 - t) ** 2, t**2, t * (1 - t), (1 - t) / r**2, t / r**2)):
                    mom[j] += v * f
            cells.append([mom[0] / h**2, *mom[1:]])
    k, left, right, off, w_left, w_right = (np.array(c, dtype=object) for c in zip(*cells))

    def to_nodes(lo, hi):
        return np.concatenate(([lo[0]], lo[1:] + hi[:-1], [hi[-1]]))

    return {"kd": to_nodes(k, k), "ke": -k, "md": to_nodes(left, right), "me": off, "w2": to_nodes(w_left, w_right)}


@pytest.mark.parametrize("N", [3, 5])
@pytest.mark.parametrize("kind", ["sphere", "hyperbolic-cap", "euclidean-ball"])
def test_tables_against_mpmath(kind, N):
    # every entry of K, Mass and W2 at M = 16 within (2N + 6) ulps: the
    # Gauss points carry about 2 ulps, which psi^{N-1} raises N - 1 times,
    # and the weights, products and the reduction about 6 more (13.3 at
    # most, on the flat ball N = 5)
    mp = pytest.importorskip("mpmath")
    m, warp, bc = {
        "sphere": (unit_sphere(N), mp.sin, "reflected"),
        "hyperbolic-cap": (hyperbolic_cap(N, 1.0, 1.0), mp.sinh, "dirichlet"),
        "euclidean-ball": (euclidean_ball(N, 1.0), lambda r: r, "dirichlet"),
    }[kind]
    forms = assemble_forms(build_grid(m.r_max, 16, 2.0, bc), m, 2.0)
    for key, want in _tables_reference(forms, warp).items():
        got = getattr(forms, key)
        assert got.shape == want.shape
        for i, (g, v) in enumerate(zip(got, want)):
            v = float(v)
            assert abs(g - v) <= (2 * N + 6) * np.spacing(abs(v)), (key, i)


def test_stiffness_annihilates_constants():
    s3 = unit_sphere(3)
    forms = assemble_forms(build_grid(math.pi, 32, 2.0, "reflected"), s3, 2.0)
    ones = np.ones(forms.n_nodes)
    assert abs(tri_quadform(forms.kd, forms.ke, ones)) < 1e-12 * np.max(forms.kd)


def test_mass_total_is_volume():
    s3 = unit_sphere(3)
    forms = assemble_forms(build_grid(math.pi, 128, 2.0, "reflected"), s3, 2.0)
    ones = np.ones(forms.n_nodes)
    vol = float(tri_quadform(forms.md, forms.me, ones))
    assert vol == pytest.approx(2 * math.pi**2, rel=1e-8)


def test_form_symmetry_and_positivity():
    # symmetry is structural (one stored off-diagonal); check positivity
    ball = euclidean_ball(4, 1.0)
    forms = assemble_forms(build_grid(1.0, 64, 2.0, "dirichlet"), ball, 1.0)
    assert np.all(forms.w2 > 0)
    assert np.all(forms.md > 0)
    rng = np.random.default_rng(0)
    for _ in range(8):
        u = rng.standard_normal(forms.n_nodes)
        assert tri_quadform(forms.kd, forms.ke, u) >= -1e-10 * np.max(forms.kd)
        assert tri_quadform(forms.md, forms.me, u) > 0


def test_quotient_constant_profile_is_zero_at_lambda0():
    s4 = unit_sphere(4)
    forms = assemble_forms(build_grid(math.pi, 64, 2.0, "reflected"), s4, 1.0)
    ones = np.ones(forms.n_nodes)
    assert abs(evaluate_quotient(forms, ones, 0.0)) < 1e-10


def test_quotient_scale_invariance():
    s4 = unit_sphere(4)
    forms = assemble_forms(build_grid(math.pi, 64, 2.0, "reflected"), s4, 1.0)
    u = bubble_init(forms, 4.0)
    base = evaluate_quotient(forms, u, -1.0)
    for c in (1e-3, 1e3):
        assert evaluate_quotient(forms, c * u, -1.0) == pytest.approx(base, rel=1e-12)


_S3_SIGMA2 = assemble_forms(build_grid(math.pi, 32, 2.0, "reflected"), unit_sphere(3), 2.0)
_BALL_SIGMA1 = assemble_forms(build_grid(1.0, 32, 2.0, "dirichlet"), euclidean_ball(4, 1.0), 1.0)


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(st.floats(-1e3, 1e3, allow_subnormal=False), min_size=33, max_size=33),
    scale=st.floats(1e-3, 1e3),
    negate=st.booleans(),
    flat=st.booleans(),
)
def test_quotient_homogeneous_of_degree_zero(values, scale, negate, flat):
    forms, lam = (_BALL_SIGMA1, 0.0) if flat else (_S3_SIGMA2, -1.0)
    u = np.array(values)
    if forms.grid.bc == "dirichlet":
        u[-1] = 0.0
    assume(np.max(np.abs(u)) >= 1e-3)
    c = -scale if negate else scale
    base = evaluate_quotient(forms, u, lam)
    assert evaluate_quotient(forms, c * u, lam) == pytest.approx(base, rel=1e-12)


def test_quotient_zero_profile_rejected():
    ball = euclidean_ball(3, 1.0)
    forms = assemble_forms(build_grid(1.0, 32, 2.0, "dirichlet"), ball, 2.0)
    with pytest.raises(DomainError):
        evaluate_quotient(forms, np.zeros(forms.n_nodes), 0.0)


def test_dirichlet_profile_contract():
    ball = euclidean_ball(3, 1.0)
    forms = assemble_forms(build_grid(1.0, 32, 2.0, "dirichlet"), ball, 2.0)
    bad = np.ones(forms.n_nodes)
    with pytest.raises(DomainError):
        evaluate_quotient(forms, bad, 0.0)


def test_assemble_validation():
    ball = euclidean_ball(3, 1.0)
    grid = build_grid(1.0, 32, 2.0, "dirichlet")
    with pytest.raises(DomainError):
        assemble_forms(grid, ball, 0.0)
    with pytest.raises(DomainError):
        assemble_forms(grid, ball, 2.5)
    with pytest.raises(DomainError):
        assemble_forms(build_grid(2.0, 32, 2.0, "dirichlet"), ball, 1.0)


def test_hs_gradient_is_first_variation():
    ball = euclidean_ball(3, 1.0)
    forms = assemble_forms(build_grid(1.0, 48, 2.0, "dirichlet"), ball, 1.0)
    rng = np.random.default_rng(1)
    u = np.abs(rng.standard_normal(forms.n_nodes)) + 0.2
    u[-1] = 0.0
    val, grad = hs_gradient(forms, u)
    assert val == pytest.approx(hs_functional(forms, u), rel=1e-14)
    h = 1e-5
    for idx in (0, 5, 20):
        e = np.zeros_like(u)
        e[idx] = 1.0
        fd = (hs_functional(forms, u + h * e) - hs_functional(forms, u - h * e)) / (2 * h)
        assert grad[idx] == pytest.approx(fd, rel=1e-5, abs=1e-9)


def test_quotient_of_eigenvector_reproduces_mu():
    s3 = unit_sphere(3)
    forms = assemble_forms(build_grid(math.pi, 256, 2.0, "reflected"), s3, 2.0)
    res = smallest_generalized_eigen(forms, -1.0)
    assert evaluate_quotient(forms, res.profile, -1.0, sigma=2.0) == pytest.approx(
        res.mu, abs=1e-10
    )


def test_interpolated_bubble_near_sharp_constant():
    # discrete quotient of the near-extremal profile stays within 5% of the
    # sharp constant from above
    ball = euclidean_ball(3, 1.0)
    forms = assemble_forms(build_grid(1.0, 2048, 2.0, "dirichlet"), ball, 1.0)
    s31 = hardy_sobolev_constant(3, 1.0)
    q = evaluate_quotient(forms, bubble_init(forms, 512.0), 0.0)
    assert q >= s31 * (1 - 0.05)
    assert q <= s31 * 1.25


def test_nested_grid_monotonicity_sigma2():
    ball = euclidean_ball(3, 1.0)
    mus = []
    for M in (128, 256, 512):
        forms = assemble_forms(build_grid(1.0, M, 2.0, "dirichlet"), ball, 2.0)
        mus.append(smallest_generalized_eigen(forms, 0.0).mu)
    assert mus[0] >= mus[1] >= mus[2]


@settings(max_examples=60, deadline=None)
@given(alpha=st.floats(0.0, 5.0, exclude_min=True))
def test_first_cell_row_is_exact_for_the_singular_weight(alpha):
    # sum_j omega_j t_j^k = int_0^1 t^alpha t^k dt for every k below the
    # order: the interpolatory rule at the cells' Legendre points
    t = _cell_points(_GAUSS_ORDER)
    omega = _first_cell(alpha, _GAUSS_ORDER)
    for k in range(_GAUSS_ORDER):
        assert float(np.dot(omega, t**k)) == pytest.approx(1.0 / (alpha + k + 1.0), rel=1e-14), k


@functools.lru_cache(maxsize=None)
def flat_ball_reference(sigma):
    """The flat ball N = 3, r_max = 1, at M = 256 and lambda = 0: its forms,
    the minimizer's profile u_h and F(u_h) = 4 pi int r^{2-sigma} u_h^p dr to
    30 digits (mpmath).  24-point Gauss-Legendre on the cells where the
    integrand is analytic; tanh-sinh on cell 0 (r^{2-sigma} at r = 0) and
    where u_h vanishes at a node (u_h^p there)."""
    mp = pytest.importorskip("mpmath")
    forms = assemble_forms(build_grid(1.0, 256, 2.0, "dirichlet"), euclidean_ball(3, 1.0), sigma)
    u = minimize_quotient(forms, 0.0).profile
    with mp.workdps(30):
        alpha, p = 2 - mp.mpf(sigma), 2 * (3 - mp.mpf(sigma))
        x, w = mp.gauss_quadrature(24, "legendre")
        total = mp.mpf(0)
        for a, b, ua, ub in zip(*(map(mp.mpf, v) for v in (forms.grid.nodes[:-1], forms.grid.nodes[1:], u[:-1], u[1:]))):

            def f(r, a=a, b=b, ua=ua, ub=ub):
                return r**alpha * (ua + (ub - ua) * (r - a) / (b - a)) ** p

            if a == 0 or ua == 0 or ub == 0:
                total += mp.quad(f, [a, b])
            else:
                h = (b - a) / 2
                total += h * mp.fsum(wi * f(a + h * (xi + 1)) for xi, wi in zip(x, w))
        return forms, u, float(4 * mp.pi * total)


@pytest.mark.parametrize("sigma", [1.5, 1.9])
def test_hs_functional_against_mpmath_on_the_minimizers_profile(sigma):
    # N - 1 - sigma is not an integer: the weight is singular at r = 0 and
    # the profile concentrates there (1.1 % and 7.0 % of F lie in cell 0);
    # 16 Gauss-Legendre points on every cell over-estimate F by 4.6e-7 and 1.3e-5
    forms, u, want = flat_ball_reference(sigma)
    assert hs_functional(forms, u) == pytest.approx(want, rel=1e-10)
