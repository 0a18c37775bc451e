import math
import warnings

import numpy as np
import pytest

from hardylab.constants import check_dimension
from hardylab.errors import DomainError
from hardylab.forms import build_grid
from hardylab.hardy_refined import build_log_grid
from hardylab.manifold import (
    curvature_criterion,
    density_expansion_residual,
    euclidean_ball,
    hyperbolic_cap,
    make_manifold,
    scalar_curvature_at_pole,
    sqrt_g_density,
    unit_sphere,
    volume_density,
)


def test_make_manifold_validation():
    m = make_manifold("sphere", 1.0, 3, math.pi)
    assert m.full_sphere
    make_manifold("euclidean-ball", 1.0, 3, 1.0)
    with pytest.raises(DomainError):
        make_manifold("sphere", 1.0, 3, 4.0)  # past the antipode
    with pytest.raises(DomainError):
        make_manifold("sphere", -1.0, 3, 1.0)
    with pytest.raises(DomainError):
        make_manifold("torus", 1.0, 3, 1.0)
    with pytest.raises(DomainError):
        make_manifold("sphere", 1.0, 2, 1.0)


INF, NAN = math.inf, math.nan


@pytest.mark.parametrize(
    "build,args",
    [
        *((check_dimension, (v,)) for v in (INF, -INF, NAN)),
        (make_manifold, ("sphere", NAN, 3, 1.0)),
        (make_manifold, ("hyperbolic-cap", INF, 3, 1.0)),
        *((make_manifold, (kind, 1.0, 3, v)) for kind in ("sphere", "euclidean-ball") for v in (INF, -INF, NAN)),
        (make_manifold, ("sphere", 1.0, NAN, 1.0)),
        *((build_grid, args) for args in [(1.0, INF), (1.0, NAN), (INF, 64), (NAN, 64)]),
        *((build_log_grid, args) for args in [(1e-4, INF, 64), (NAN, 0.5, 64), (1e-4, 0.5, INF), (1e-4, 0.5, NAN)]),
    ],
)
def test_non_finite_arguments_are_refused(build, args):
    # a DomainError, not a bare OverflowError or ValueError, and no numpy
    # warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            build(*args)


def test_warp_functions():
    s = make_manifold("sphere", 2.0, 3, 2 * math.pi)
    assert s.warp(math.pi) == pytest.approx(2 * math.sin(math.pi / 2), rel=1e-14)
    e = euclidean_ball(4, 2.0)
    assert e.warp(1.3) == 1.3
    h = hyperbolic_cap(3, 2.0, 1.0)
    assert h.warp(0.8) == pytest.approx(2 * math.sinh(0.4), rel=1e-14)


def test_volume_density_values():
    e = euclidean_ball(3, 1.0)
    assert sqrt_g_density(e, 0.5) == 1.0
    s = unit_sphere(3)
    assert volume_density(s, math.pi / 2) == pytest.approx(1.0, rel=1e-14)  # sin^2 = 1
    with pytest.raises(DomainError):
        volume_density(e, 2.0)


def test_density_limits_at_pole():
    for m in (unit_sphere(3), euclidean_ball(4), hyperbolic_cap(5)):
        r = 1e-5
        assert sqrt_g_density(m, r) == pytest.approx(1.0, abs=1e-10)
        assert m.warp(r) / r == pytest.approx(1.0, abs=1e-10)


def test_sqrt_g_taylor_sphere():
    # (sin r / r)^{N-1} = 1 - (N-1) r^2/6 + O(r^4)
    s = unit_sphere(3)
    for r in (1e-3, 1e-2, 5e-2):
        want = 1.0 - (3 - 1) * r**2 / 6.0
        assert sqrt_g_density(s, r) == pytest.approx(want, abs=2 * r**4)


def test_scalar_curvature():
    assert scalar_curvature_at_pole(unit_sphere(4)) == pytest.approx(12.0)
    assert scalar_curvature_at_pole(euclidean_ball(7)) == 0.0
    assert scalar_curvature_at_pole(hyperbolic_cap(3, 2.0)) == pytest.approx(-1.5)


@pytest.mark.parametrize(
    "m", [unit_sphere(3), unit_sphere(5), euclidean_ball(3), hyperbolic_cap(3), hyperbolic_cap(4)]
)
def test_density_expansion_residual(m):
    assert density_expansion_residual(m) <= 1e-4


def test_density_monotonicity_between_kinds():
    # sphere < euclidean < hyperbolic pointwise on (0, pi/2)
    n = 4
    s, e, h = unit_sphere(n), euclidean_ball(n, 1.5), hyperbolic_cap(n, 1.0, 1.5)
    r = np.linspace(0.05, 1.45, 40)
    ds = volume_density(s, r)
    de = volume_density(e, r)
    dh = volume_density(h, r)
    assert np.all(ds < de) and np.all(de < dh)


def test_curvature_criterion():
    assert curvature_criterion(unit_sphere(4), -1.0)  # 12 > 6
    assert not curvature_criterion(euclidean_ball(3), -0.1)  # 0 > 0.6 fails
    assert not curvature_criterion(unit_sphere(4), -2.0)  # 12 > 12 fails (strict)
    assert curvature_criterion(euclidean_ball(3), 0.1)
