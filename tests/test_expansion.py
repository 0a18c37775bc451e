import math

import numpy as np
import pytest

from hardylab.bubble import bubble_moments
from hardylab.constants import critical_exponent, hardy_sobolev_constant, sphere_area
from hardylab.errors import DomainError
from hardylab.expansion import ExpansionSeries, fit_expansion, quotient_series, theory_coefficient
from hardylab.forms import assemble_forms, build_grid, evaluate_quotient
from hardylab.manifold import euclidean_ball, unit_sphere
from hardylab.minimizer import bubble_init


def _synthetic(ns, q, N=5):
    ns = np.asarray(ns, dtype=float)
    return ExpansionSeries(
        n=ns, energy=q, denom=np.ones_like(ns), quotient=q, lam=0.0, sigma=1.0, N=N, r_cut=1.0
    )


def test_fit_recovers_exact_inverse_square():
    ns = np.array([4.0, 8.0, 16.0, 32.0, 64.0])
    q = 7.0 - 3.0 / ns**2
    fit = fit_expansion(_synthetic(ns, q))
    assert fit.c0 == pytest.approx(7.0, abs=1e-10)
    assert fit.c1 == pytest.approx(3.0, abs=1e-9)
    assert fit.rms_residual < 1e-10


def test_fit_recovers_exact_log_model():
    ns = np.array([4.0, 8.0, 16.0, 32.0, 64.0])
    q = 5.0 - (2.0 * np.log(ns) + 0.7) / ns**2
    fit = fit_expansion(_synthetic(ns, q, N=4))
    assert fit.model == "log-corrected"
    assert fit.c0 == pytest.approx(5.0, abs=1e-10)
    assert fit.c1 == pytest.approx(2.0, abs=1e-8)
    assert fit.c2 == pytest.approx(0.7, abs=1e-8)


def test_fit_recovers_exact_model_with_remainder_terms():
    # N = 5, sigma = 1: the family's remainder beyond c1/n^2 is n^-3, n^-4
    ns = np.array([4.0, 8.0, 16.0, 32.0, 64.0])
    q = 7.0 - 3.0 / ns**2 + 25.0 / ns**3 - 40.0 / ns**4
    fit = fit_expansion(_synthetic(ns, q))
    assert fit.model == "inverse-square"
    assert fit.c0 == pytest.approx(7.0, abs=1e-10)
    assert fit.c1 == pytest.approx(3.0, abs=1e-8)
    assert fit.rms_residual < 1e-10


def test_fit_needs_enough_points():
    ns = np.array([4.0, 8.0, 16.0])
    with pytest.raises(DomainError):
        fit_expansion(_synthetic(ns, 7.0 - 3.0 / ns**2))


def test_series_validation():
    s5 = unit_sphere(5)
    with pytest.raises(DomainError):
        quotient_series(s5, -1.0, 1.0, [1, 2, 4])  # min n too small
    with pytest.raises(DomainError):
        quotient_series(s5, -1.0, 1.0, [4, 8, 16], r_cut=2.0)  # 2*rcut > pi
    for r_cut in (0.0, -1.0):  # empty cutoff support
        with pytest.raises(DomainError):
            quotient_series(s5, -1.0, 1.0, [4, 8, 16], r_cut=r_cut)
    with pytest.raises(DomainError):
        quotient_series(s5, -1.0, 0.0, [4, 8, 16])


def test_flat_series_approaches_sharp_constant():
    ball = euclidean_ball(5, 8.0)
    ser = quotient_series(ball, 0.0, 1.0, [8, 16, 32, 64])
    s51 = hardy_sobolev_constant(5, 1.0)
    assert np.all(np.diff(ser.quotient) < 0)  # decreasing toward the constant
    assert ser.quotient[-1] == pytest.approx(s51, rel=2e-4)
    assert np.all(ser.quotient > s51)  # flat family stays above


def test_denominator_tends_to_flat_moment():
    ball = euclidean_ball(5, 2.0)
    ser = quotient_series(ball, 0.0, 1.0, [32], r_cut=1.0)
    p = critical_exponent(1.0, 5)
    want = bubble_moments(5, 1.0).hs_mass.value ** (2.0 / p)
    assert ser.denom[0] == pytest.approx(want, rel=0.01)


def test_sphere_series_dips_below_constant():
    s5 = unit_sphere(5)
    ser = quotient_series(s5, -1.0, 1.0, [16, 32, 64, 128])
    assert np.all(ser.quotient < hardy_sobolev_constant(5, 1.0))
    assert np.all(ser.quotient > 0)


def test_series_cross_checks_discrete_quotient():
    # two independent pipelines: dedicated panel quadrature vs the
    # assembled-forms quotient of the interpolated profile
    s5 = unit_sphere(5)
    ser = quotient_series(s5, -1.0, 1.0, [4, 8])
    forms = assemble_forms(build_grid(math.pi, 8192, 3.0, "reflected"), s5, 1.0)
    for n, q in zip(ser.n, ser.quotient):
        u = bubble_init(forms, float(n), r_cut=math.pi / 2)
        disc = evaluate_quotient(forms, u, -1.0)
        assert disc == pytest.approx(q, rel=2e-3)


def _mpmath_coefficient(N, sigma, sg, lam):
    """Independent oracle: -dQ/d(eps) at eps = 0, where eps = 1/n^2 and Q is
    the quotient built from the explicit profile's moments with the
    volume density 1 - S_g/(6N) r^2, all at 30 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        n, s = mp.mpf(N), mp.mpf(sigma)
        p = 2 * (n - s) / (n - 2)
        a = mp.mpf(sg) / (6 * n)
        om = 2 * mp.pi ** (n / 2) / mp.gamma(n / 2)
        w = lambda t: (1 + t ** (2 - s)) ** ((2 - n) / (2 - s))
        dw = lambda t: (2 - n) * t ** (1 - s) * (1 + t ** (2 - s)) ** ((2 - n) / (2 - s) - 1)
        moment = lambda f: om * mp.quad(lambda t: f(t) * t ** (n - 1), [0, 1, mp.inf])
        kin0, kin2 = moment(lambda t: dw(t) ** 2), moment(lambda t: dw(t) ** 2 * t**2)
        mass = moment(lambda t: w(t) ** 2)
        hs0, hs2 = moment(lambda t: t ** (-s) * w(t) ** p), moment(lambda t: t ** (2 - s) * w(t) ** p)
        quotient = lambda eps: (kin0 - eps * (a * kin2 + lam * mass)) / (hs0 - eps * a * hs2) ** (2 / p)
        return float(-mp.diff(quotient, 0))


def test_theory_coefficient_values():
    for N, sigma in [(5, 1.0), (5, 0.5), (6, 1.0), (7, 1.5)]:
        sphere = unit_sphere(N)
        sg = N * (N - 1.0)
        want = _mpmath_coefficient(N, sigma, sg, -1.0)
        assert theory_coefficient(sphere, -1.0, sigma) == pytest.approx(want, rel=1e-9)
        # the coefficient vanishes at lambda = -c_{N,sigma} S_g (Jaber's constant)
        c_ns = (N - 2) * (6 - sigma) / (12 * (2 * N - 2 - sigma))
        assert theory_coefficient(sphere, -c_ns * sg, sigma) == pytest.approx(0.0, abs=1e-9 * abs(want))
    assert theory_coefficient(euclidean_ball(5, 2.0), 0.0, 1.0) == 0.0


def test_theory_coefficient_n4_uses_log_slope():
    # the coefficient of log n / n^2 takes r2_dirichlet's far-field slope
    # 4 |S^3| (r^2 |w'|^2 r^3 -> 4/r), not the slope measured at the
    # truncation radius, which is 0.998, 0.841 and 2.8e-7 of it here
    s4 = unit_sphere(4)
    slope = 4.0 * sphere_area(3)
    for sigma, share in [(1.0, 0.998), (1.5, 0.841), (1.9, 2.76e-7)]:
        val = theory_coefficient(s4, -1.0, sigma)
        mom = bubble_moments(4, sigma)
        p = critical_exponent(sigma, 4)
        want = (12.0 - 6.0) / 24.0 * slope / mom.hs_mass.value ** (2.0 / p)
        assert val == pytest.approx(want, rel=1e-12)
        assert val > 0
        assert mom.r2_dirichlet.log_slope / slope == pytest.approx(share, rel=2e-3)


def test_theory_coefficient_domain():
    with pytest.raises(DomainError):
        theory_coefficient(unit_sphere(5), 0.5, 1.0)  # positive lambda
    with pytest.raises(DomainError):
        theory_coefficient(unit_sphere(3), -1.0, 1.0)  # N < 4


def test_deep_window_coefficient_n4_matches_theory():
    # the log-corrected model's leading coefficient converges to the
    # truncated-moment prediction (slowly; a deep window gets within ~10%)
    s4 = unit_sphere(4)
    ser = quotient_series(s4, -1.0, 1.0, [64, 128, 256, 512, 1024])
    fit = fit_expansion(ser)
    th = theory_coefficient(s4, -1.0, 1.0)
    assert fit.model == "log-corrected"
    assert fit.c1 == pytest.approx(th, rel=0.10)


def test_deep_window_coefficient_matches_theory():
    # with its remainder orders carried, the inverse-square fit on a deep
    # window recovers the second-order coefficient to within 1%
    deep = [64, 128, 256, 512, 1024]
    for m in (unit_sphere(5), unit_sphere(6)):
        fit = fit_expansion(quotient_series(m, -1.0, 1.0, deep))
        assert fit.model == "inverse-square"
        assert fit.c0 == pytest.approx(hardy_sobolev_constant(m.N, 1.0), rel=1e-6)
        assert fit.c1 == pytest.approx(theory_coefficient(m, -1.0, 1.0), rel=0.01)


def test_sign_law_on_deep_windows():
    # fitted second-order coefficient signs follow c_{N,sigma} S_g + lambda
    # (c_{4,sigma} = 1/6, c_{5,1} = 15/84)
    cases = [
        (unit_sphere(5), -1.0, 1),  # 20 * 15/84 - 1 > 0
        (unit_sphere(4), -3.0, -1),  # 12/6 - 3 < 0
        (unit_sphere(4), -1.0, 1),  # 12/6 - 1 > 0
    ]
    for m, lam, sign in cases:
        ser = quotient_series(m, lam, 1.0, [32, 64, 128, 256])
        fit = fit_expansion(ser)
        assert math.copysign(1, fit.c1) == sign


def test_cutoff_stability_of_limit():
    # doubling the cutoff radius leaves the fitted limit essentially
    # unchanged (the correction coefficient is far more cutoff-sensitive at
    # moderate n; see the decisions notes)
    ball = euclidean_ball(5, 8.0)
    f1 = fit_expansion(quotient_series(ball, 0.0, 1.0, [16, 32, 64, 128], r_cut=2.0))
    f2 = fit_expansion(quotient_series(ball, 0.0, 1.0, [16, 32, 64, 128], r_cut=4.0))
    assert abs(f1.c0 - f2.c0) <= 1e-4 * abs(f1.c0)
