import math

import numpy as np
import pytest

from hardylab.bubble import (
    bubble_grad,
    bubble_moments,
    bubble_quotient,
    bubble_value,
    pohozaev_residual,
)
from hardylab.constants import hardy_sobolev_constant, sobolev_constant, sphere_area
from hardylab.errors import DomainError

OM4 = sphere_area(4)  # 8 pi^2 / 3

# closed Beta-integral forms of the (N=5, sigma=1) moments: exact rationals
# times the surface factor
MOMENTS_51 = {
    "dirichlet": 3 * OM4 / 35,
    "mass2": OM4 / 5,
    "hs_mass": OM4 / 140,
    "r2_dirichlet": 9 * OM4 / 7,
    "r2_hs": OM4 / 42,
}

# frozen 30-digit Beta-form oracle for a non-integer argument case
MOMENTS_6_05 = {
    "dirichlet": 5.4007930405280588,
    "mass2": 2.7598993528618521,
    "hs_mass": 0.2454905927512754,
    "r2_dirichlet": 26.146414921849125,
    "r2_hs": 0.43577358203081876,
}


def test_bubble_value_basics():
    assert bubble_value(0.0, 5, 1.0) == 1.0
    assert bubble_value(0.0, 3, 0.5) == 1.0
    assert bubble_value(1.0, 4, 0.0) == pytest.approx(0.5, rel=1e-14)
    r = np.linspace(0.0, 10.0, 101)
    w = bubble_value(r, 5, 1.0)
    assert np.all(np.diff(w) < 0)


def test_bubble_far_field_power_law():
    # w(r) ~ r^{2-N}; the correction decays like r^{sigma-2} with the
    # analytic prefactor (N-2)/(2-sigma)
    r = 1e4
    for N, s in ((4, 1.0), (5, 0.5), (3, 1.5)):
        dev = abs(bubble_value(r, N, s) / r ** (2 - N) - 1.0)
        assert dev <= 1.5 * (N - 2) / (2 - s) * r ** (s - 2.0)
    assert bubble_value(r, 4, 1.0) / r**-2 == pytest.approx(1.0, rel=1e-3)


def test_bubble_grad_closed_form_and_zero():
    assert bubble_grad(0.0, 5, 0.5) == 0.0
    assert bubble_grad(1.0, 4, 0.0) == pytest.approx(-0.5, rel=1e-14)


def test_bubble_grad_matches_finite_difference():
    h = 1e-6
    for N, s in ((4, 1.0), (5, 0.5), (6, 1.5), (3, 1.0)):
        for r in (0.1, 0.7, 1.3, 5.0):
            fd = (bubble_value(r + h, N, s) - bubble_value(r - h, N, s)) / (2 * h)
            assert bubble_grad(r, N, s) == pytest.approx(fd, rel=1e-6)


def test_moments_against_closed_forms_51():
    m = bubble_moments(5, 1.0, tol=1e-10)
    for name, want in MOMENTS_51.items():
        got = getattr(m, name)
        assert got.finite
        assert got.value == pytest.approx(want, rel=1e-9)
        assert abs(got.value - want) <= 10 * got.abs_error + 1e-12 * abs(want)


def test_moments_against_closed_forms_6_05():
    m = bubble_moments(6, 0.5, tol=1e-10)
    for name, want in MOMENTS_6_05.items():
        assert getattr(m, name).value == pytest.approx(want, rel=1e-9)


def test_moments_positive():
    m = bubble_moments(5, 1.5)
    for name in MOMENTS_51:
        assert getattr(m, name).value > 0


def test_divergent_flags_at_n4():
    m = bubble_moments(4, 1.0)
    assert not m.mass2.finite and not m.r2_dirichlet.finite
    assert m.dirichlet.finite and m.hs_mass.finite and m.r2_hs.finite
    assert math.isinf(m.mass2.value)
    # truncated values grow with the log of the truncation radius, with the
    # far-field slopes |S^3| and 4 |S^3|
    om3 = sphere_area(3)
    assert m.mass2.log_slope == pytest.approx(om3, rel=5e-3)
    assert m.r2_dirichlet.log_slope == pytest.approx(4 * om3, rel=5e-3)
    m5 = bubble_moments(5, 1.0)
    assert m5.mass2.finite and m5.r2_dirichlet.finite


def test_moment_preconditions():
    with pytest.raises(DomainError):
        bubble_moments(3, 1.0)
    with pytest.raises(DomainError):
        bubble_moments(5, 0.0)
    with pytest.raises(DomainError):
        bubble_moments(5, 1.0, tol=0.0)
    for radius in (0.0, -100.0, math.inf, math.nan):
        with pytest.raises(DomainError, match="truncation_radius must be positive and finite"):
            bubble_moments(4, 1.0, truncation_radius=radius)


def test_tail_control():
    # tightening the tolerance moves each finite moment by less than the
    # reported error estimate
    loose = bubble_moments(5, 1.0, tol=1e-6)
    tight = bubble_moments(5, 1.0, tol=1e-12)
    for name in MOMENTS_51:
        a, b = getattr(loose, name), getattr(tight, name)
        assert abs(a.value - b.value) <= a.abs_error + 1e-14


@pytest.mark.parametrize(
    "N,sigma",
    [(3, 1.0), (4, 0.0), (4, 1.0), (5, 0.5), (6, 1.5), (3, 1.999), (4, 1.999), (5, 1.999), (6, 1.999)],
)
def test_quotient_matches_sharp_constant(N, sigma):
    # up to sigma = 1.999, where hs_mass alone would underflow: the
    # quotient is formed from the moments' logarithms
    want = sobolev_constant(N) if sigma == 0.0 else hardy_sobolev_constant(N, sigma)
    assert bubble_quotient(N, sigma) == pytest.approx(want, rel=1e-8)


def test_quotient_scale_invariance():
    base = bubble_quotient(5, 1.0)
    for c in (1e-3, 1.0, 1e3):
        assert bubble_quotient(5, 1.0, scale=c) == pytest.approx(base, rel=1e-12)


def test_quotient_refuses_a_scale_that_is_not_positive():
    for c in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError, match="scale must be positive and finite"):
            bubble_quotient(5, 1.0, scale=c)


def test_moments_refuse_sigma_too_close_to_two():
    # every moment carries a factor 4^-(N-sigma)/(2-sigma): at N = 5 the
    # first one leaves the normal double range from sigma = 1.9945 on
    for sigma in (1.995, 1.999):
        with pytest.raises(DomainError, match=rf"sigma = {sigma} is too close to 2 for N = 5: dirichlet = .* leaves the normal double range"):
            bubble_moments(5, sigma)


def test_moments_refuse_an_error_estimate_that_misses_tol():
    # no estimate falls below the rounding of the log integrand (a few
    # 1e-14 here), so a moment is refused, not returned with a value that
    # claims tol
    cases = [
        (bubble_quotient, (3, 1.0, 1e-17), "hs_mass"),
        (bubble_moments, (5, 1.0, 1e-17), "dirichlet"),
    ]
    for call, args, name in cases:
        with pytest.raises(DomainError, match=rf"{name} misses tol = 1e-17 at N = {args[0]}, sigma = {args[1]} "):
            call(*args)


@pytest.mark.parametrize("N,sigma", [(5, 0.5), (5, 1.0), (6, 1.0), (6, 0.5)])
def test_pohozaev_identity(N, sigma):
    assert pohozaev_residual(N, sigma) <= 1e-8


def test_pohozaev_sigma_continuity():
    assert pohozaev_residual(5, 1e-3) <= 1e-6


def test_pohozaev_refuses_n4():
    with pytest.raises(DomainError):
        pohozaev_residual(4, 1.0)
