import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylab import _kernels
from hardylab.constants import hardy_constant
from hardylab.eigensolver import smallest_generalized_eigen
from hardylab.errors import DomainError
from hardylab.forms import assemble_forms, build_grid, tri_quadform
from hardylab.manifold import euclidean_ball, hyperbolic_cap, unit_sphere
from hardylab.minimizer import minimize_quotient
from hardylab.thresholds import (
    _distinct_basins,
    _margin_test,
    constant_profile_bound,
    lambda_star_bracket,
    mu_curve,
    mu_of_lambda,
    strict_inequality_report,
)


def test_mu_of_lambda_zero_on_sphere():
    mu, conc, _ = mu_of_lambda(unit_sphere(3), 0.0, M=256)
    assert abs(mu) < 1e-10
    assert conc < 0.1


def test_mu_monotone():
    m = unit_sphere(3)
    mu1, _, _ = mu_of_lambda(m, -1.0, M=512)
    mu2, _, _ = mu_of_lambda(m, -0.2, M=512)
    assert mu1 > mu2
    assert 0.0 < mu2 <= hardy_constant(3) + 1e-2


def test_mu_curve_shape_and_decrease():
    curve = mu_curve(unit_sphere(3), [-2.0, -1.0, 0.0, 1.0], M=512)
    assert np.all(np.diff(curve.mus) < 0)
    assert curve.lambdas.shape == curve.mus.shape == curve.concentrations.shape


@pytest.mark.parametrize(
    "m,lams",
    [(unit_sphere(3), np.linspace(-2.0, 1.0, 9)), (euclidean_ball(3, 1.0), np.linspace(0.0, 8.0, 9))],
)
def test_mu_curve_matches_single_solves(m, lams):
    curve = mu_curve(m, lams, M=256)
    for lam, mu, conc in zip(curve.lambdas, curve.mus, curve.concentrations):
        assert (mu, conc) == mu_of_lambda(m, lam, M=256)[:2], lam


@pytest.mark.parametrize(
    "m,bc,lam_range",
    [(unit_sphere(3), "reflected", (-3.0, 1.0)), (euclidean_ball(3, 1.0), "dirichlet", (0.0, 9.0))],
)
@pytest.mark.parametrize("M", [64, 256])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_mu_concave_decreasing_with_hellmann_feynman_slope(m, bc, lam_range, M, data):
    # mu_h(lam) is a minimum of functions affine in lam: concave, strictly
    # decreasing, with slope -u'Mu / u'Wu at its eigenvector u
    forms = assemble_forms(build_grid(m.r_max, M, 2.0, bc), m, 2.0)
    a = data.draw(st.floats(*lam_range))
    b = data.draw(st.floats(a + 0.01, a + 2.0))

    def mu(lam):
        return smallest_generalized_eigen(forms, lam).mu

    mu_a, mu_b, mu_mid = mu(a), mu(b), mu(0.5 * (a + b))
    assert mu_a > mu_mid > mu_b
    assert mu_mid >= 0.5 * (mu_a + mu_b) - 1e-9

    h = 1e-3
    res = smallest_generalized_eigen(forms, a)
    u = res.profile
    slope = -tri_quadform(forms.md, forms.me, u) / float(np.dot(forms.w2, u * u))
    assert (mu(a + h) - mu(a - h)) / (2.0 * h) == pytest.approx(slope, rel=1e-4)


def test_constant_profile_bound_s3():
    # -cap * int rho^{-2} / Vol on the unit three-sphere; independent
    # quadrature cross-check against the sin^2/r^2 integral
    bound = constant_profile_bound(unit_sphere(3))
    r = np.linspace(1e-9, math.pi, 400001)
    inv2 = np.trapezoid(np.sin(r) ** 2 / r**2, r) * 4 * math.pi
    vol = 2 * math.pi**2
    assert bound == pytest.approx(-0.25 * inv2 / vol, rel=1e-6)
    assert bound < 0


def test_bracket_s3():
    m = unit_sphere(3)
    br = lambda_star_bracket(m, tol_lambda=0.1, M=512)
    assert br.lo < br.hi
    assert br.hi - br.lo <= 0.1 + 1e-12
    assert br.hi <= constant_profile_bound(m) + 1e-9
    # detection invariant: mu(hi) < cap - delta <= mu(lo) + delta
    assert br.mu_hi < br.cap - br.detection_delta
    assert br.cap - br.detection_delta <= br.mu_lo + br.detection_delta


@pytest.mark.parametrize(
    "tol,delta",
    [
        (math.nan, None),
        (math.inf, None),
        (0.0, None),
        (-0.05, None),
        (0.05, math.nan),
        (0.05, math.inf),
        (0.05, 0.0),
        (0.05, -0.01),
    ],
)
def test_bracket_rejects_bad_tolerances(tol, delta):
    with pytest.raises(DomainError):
        lambda_star_bracket(unit_sphere(3), tol_lambda=tol, detection_delta=delta, M=64)


@pytest.mark.parametrize(
    "m,bc,lams",
    [
        (unit_sphere(3), "reflected", np.linspace(-2.0, 1.0, 31)),
        (euclidean_ball(3, 1.0), "dirichlet", np.linspace(4.0, 8.0, 31)),
    ],
)
def test_count_predicate_matches_eigensolve(m, bc, lams):
    # the bracket's predicate mu_h(lam) < cap - delta, asked of the margin's
    # one definiteness test at the shift lam, gives the eigensolver's answer
    # wherever the two are resolved
    forms = assemble_forms(build_grid(m.r_max, 256, 2.0, bc), m, 2.0)
    cap = hardy_constant(m.N)
    tests = {delta: _margin_test(forms, cap - delta) for delta in (1e-3, 1e-2)}
    outcomes = set()
    for lam in lams:
        mu = smallest_generalized_eigen(forms, lam).mu
        for delta, definite in tests.items():
            if abs(mu - (cap - delta)) <= 1e-9:
                continue
            below = not definite(lam)
            assert below == (mu < cap - delta), (lam, delta, mu)
            outcomes.add(below)
    assert outcomes == {True, False}


@pytest.mark.parametrize("delta,margins", [(None, 2), (1e-3, 1)])
def test_bracket_builds_one_mass_weighted_test_per_margin(monkeypatch, delta, margins):
    # lambda is the shift of one test of (K - (cap - delta) W) - lambda Mass
    # per margin: the provisional and the final one with a measured delta,
    # one with a fixed delta; every other test is an eigensolve's, weighted by W
    m = unit_sphere(3)
    forms = assemble_forms(build_grid(m.r_max, 128, 2.0, "reflected"), m, 2.0)
    built, calls = [], []
    build = _kernels.definite_test

    def recording(d, e, w, w_off=None):
        test = build(d, e, w, w_off)
        mass = np.array_equal(w, forms.md[forms.dof])
        built.append(mass)
        return lambda s: calls.append(mass) or test(s)

    monkeypatch.setattr(_kernels, "definite_test", recording)
    lambda_star_bracket(m, tol_lambda=0.01, detection_delta=delta, M=128)
    assert built.count(True) == margins
    assert calls.count(True) > 10 * margins  # the sweep, its widening and the bisection


@pytest.mark.parametrize("tol", [1e-17, 1e-300])
def test_bracket_stops_at_double_resolution(tol):
    # a tolerance below the spacing of doubles near lambda-star ends the
    # bisection at adjacent doubles instead of bisecting forever
    br = lambda_star_bracket(unit_sphere(3), tol_lambda=tol, detection_delta=1e-3, M=64)
    assert br.lo < br.hi == math.nextafter(br.lo, math.inf)


@pytest.mark.parametrize("M,tol,lo,hi", [(256, 0.1, -0.390625, -0.3125), (512, 0.05, -0.390625, -0.3515625)])
def test_bracket_s3_pinned(M, tol, lo, hi):
    # the brackets the eigensolve predicate gave before the count predicate
    br = lambda_star_bracket(unit_sphere(3), tol_lambda=tol, M=M)
    assert (br.lo, br.hi) == (lo, hi)


@pytest.mark.parametrize(
    "m,sweep,lo,hi",
    [
        (euclidean_ball(3, 1.0), (7.0, 10.0), 6.2890625, 6.34375),  # positive bottom
        (unit_sphere(3), (0.0, 5.0), -0.390625, -0.3125),  # zero bottom: the default sweep's bracket
    ],
)
def test_bracket_widens_down_from_nonnegative_bottom(m, sweep, lo, hi):
    br = lambda_star_bracket(m, tol_lambda=0.1, M=256, sweep=sweep)
    assert (br.lo, br.hi) == (lo, hi)


def test_bracket_widens_up_to_hyperbolic_cap_threshold():
    # the default sweep tops out at 0; the cap's threshold is about 7.3, so
    # the upward sweep must test 0, 1, 3, 7 and 15 (the doubling steps)
    br = lambda_star_bracket(hyperbolic_cap(3), M=512)
    assert (br.lo, br.hi) == (7.25, 7.28125)
    assert br.mu_hi < br.cap - br.detection_delta <= br.mu_lo


def test_bracket_stability_under_refinement():
    m = unit_sphere(3)
    a = lambda_star_bracket(m, tol_lambda=0.1, M=256)
    b = lambda_star_bracket(m, tol_lambda=0.1, M=512, detection_delta=a.detection_delta / 2)
    assert a.lo - 0.15 <= b.hi and b.lo <= a.hi + 0.15  # brackets overlap


def test_bracket_on_dirichlet_ball():
    # on the unit Dirichlet ball the threshold is positive (it scales like
    # 1/R^2, and the first Dirichlet mode bounds it above by ~7.6)
    br = lambda_star_bracket(euclidean_ball(3, 1.0), tol_lambda=0.1, M=512)
    assert br.hi - br.lo <= 0.1 + 1e-12
    assert 0.0 < br.hi < 7.65
    assert br.mu_hi < br.cap - br.detection_delta


def test_theorem_report_confirms_on_s4():
    rep = strict_inequality_report(unit_sphere(4), -1.0, 1.0, M=256)
    assert rep.criterion_holds
    assert rep.verdict == "CONFIRMS_THEOREM"
    assert rep.margin > 5 * rep.error_estimate
    assert rep.mu_upper < rep.sharp_constant


def test_theorem_report_near_zero_lambda_trivial():
    rep = strict_inequality_report(unit_sphere(4), -1e-6, 1.0, M=256)
    assert rep.mu_upper < 0.01  # near-constant minimizer
    assert rep.verdict == "CONFIRMS_THEOREM"


def test_theorem_report_inconclusive_flat():
    # flat case at lambda=0: margin vanishes within error
    rep = strict_inequality_report(euclidean_ball(3, 1.0), 0.0, 1.0, M=256)
    assert not rep.criterion_holds
    assert rep.verdict == "INCONCLUSIVE"
    assert not rep.within_theorem_dims


def test_theorem_report_criterion_fails_when_lambda_too_negative():
    rep = strict_inequality_report(unit_sphere(4), -3.0, 1.0, M=256)
    assert not rep.criterion_holds  # 12 > 18 fails
    assert rep.verdict == "INCONCLUSIVE"


def test_theorem_report_fine_grid_starts_from_the_coarse_answer():
    m = unit_sphere(4)
    rep = strict_inequality_report(m, -1.0, 1.0, M=64)
    assert rep.fine.iterations_total < rep.coarse.iterations_total
    # the cold four-start run on the 2M grid finds the same minimizer
    cold = minimize_quotient(assemble_forms(build_grid(m.r_max, 128, 2.0, "reflected"), m, 1.0), -1.0)
    assert rep.fine.mu_upper == pytest.approx(cold.mu_upper, rel=1e-10)
    cold_margin = rep.sharp_constant - min(rep.coarse.mu_upper, cold.mu_upper)
    assert cold_margin > 5.0 * abs(rep.coarse.mu_upper - cold.mu_upper)
    assert rep.verdict == "CONFIRMS_THEOREM"


@pytest.mark.parametrize(
    "values,kept",
    [
        ([1.0, 1.0 + 1e-12, 1.2], [0, 2]),  # a tie within the stationarity scale is one basin
        ([1.2, 1.0 + 1e-12, 1.0], [2, 0]),  # lowest first, whatever the start order
        ([1.0, 1.0, 1.0], [0]),
    ],
)
def test_distinct_basins(values, kept):
    assert _distinct_basins(values) == kept
