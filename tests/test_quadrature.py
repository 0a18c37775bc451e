"""The bubble moments against 30-digit mpmath, and the stacked family
quadrature of ``expansion.quotient_series`` against its per-n oracle.

Every finite moment of ``bubble_moments`` must lie within 1e-12 relative
of ``mp.beta`` of its Beta form and within its own error estimate; the
N = 4 truncations and their log slopes within 1e-12 of ``mp.quad`` of the
radial integrand itself; ``bubble_quotient`` within 1e-12 of the mpmath
quotient.  The series must return the same bits as the plain quadrature
below, which evaluates the profile afresh for every concentration index n
(``_family_integrals`` called per n), with the same errors and no
RuntimeWarning that the oracle does not also emit."""

import functools
import math
import warnings

import numpy as np
import pytest

from hardylab.bubble import bubble_grad, bubble_moments, bubble_quotient, bubble_value, pohozaev_residual
from hardylab.constants import check_sigma, critical_exponent, sphere_area
from hardylab.errors import DomainError
from hardylab.expansion import ExpansionSeries, _panel_edges, quotient_series
from hardylab.forms import gauss_panels
from hardylab.manifold import unit_sphere
from hardylab.minimizer import cutoff_radius, smooth_cutoff, smooth_cutoff_deriv

# ---------------------------------------------------------------------------
# 30-digit moments (the bubble oracle)
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def mp_moments(n, sigma):
    """The five moments at the binary value of sigma from their Beta forms
    (t = r^kappa, u = t/(1+t)), None where one diverges."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        s = mp.mpf(sigma)
        k = 2 - s
        big_a = (n - s) / k
        om = 2 * mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2) / k
        grad = (n - 2) ** 2 * om
        forms = {
            "dirichlet": (grad, big_a + 1, big_a - 1),
            "mass2": (om, n / k, (n - 4) / k),
            "hs_mass": (om, big_a, big_a),
            "r2_dirichlet": (grad, big_a + 1 + 2 / k, big_a - 1 - 2 / k),
            "r2_hs": (om, n / k + 1, (n - 2 - s) / k),
        }
        return {name: c * mp.beta(a, b) if b > 0 else None for name, (c, a, b) in forms.items()}


@functools.lru_cache(maxsize=None)
def mp_truncated(name, sigma, radius):
    """mass2 or r2_dirichlet at N = 4 over the ball of ``radius``: mp.quad
    of the radial integrand itself, on panels split at 2^-4, ..., 2^k."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        s = mp.mpf(sigma)
        k = 2 - s
        om = 2 * mp.pi**2  # |S^3|
        w2 = lambda r: (1 + r**k) ** (-4 / k)
        dw2 = lambda r: 4 * r ** (2 - 2 * s) * (1 + r**k) ** (-4 / k - 2)
        f = (lambda r: om * w2(r) * r**3) if name == "mass2" else (lambda r: om * r**2 * dw2(r) * r**3)
        points = [mp.mpf(0)] + [mp.mpf(2) ** j for j in range(-4, math.ceil(math.log2(radius)))] + [mp.mpf(radius)]
        return mp.quad(f, points)


def mp_quotient(n, sigma):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        m = mp_moments(n, sigma)
        p = 2 * (n - mp.mpf(sigma)) / (n - 2)
        return m["dirichlet"] / m["hs_mass"] ** (2 / p)


def _rel(got, want):
    return float(abs((got - want) / want))


def assert_moments_match_mpmath(m, radius=1e4):
    """Each finite moment within 1e-12 relative of mpmath and within its
    own estimate; at N = 4 the truncations and log slopes within 1e-12."""
    for name, want in mp_moments(m.N, m.sigma).items():
        got = getattr(m, name)
        if want is None:
            big, small = (mp_truncated(name, m.sigma, r) for r in (radius, radius / 8.0))
            assert not got.finite and got.truncation_radius == radius
            assert _rel(got.truncated_value, big) <= 1e-12, (m.N, m.sigma, name, radius)
            assert _rel(got.log_slope, (big - small) / math.log(8.0)) <= 1e-12, (m.N, m.sigma, name, radius)
        else:
            assert got.finite and _rel(got.value, want) <= 1e-12, (m.N, m.sigma, name)
            assert float(abs(got.value - want)) <= got.abs_error, (m.N, m.sigma, name)


SIGMAS = (0.1, 0.4, 0.7, 1.0, 1.3, 1.6, 1.9, 1.99)
TOLS = (1e-6, 1e-8, 1e-10, 1e-12)


@pytest.mark.parametrize("N", [3, 4, 5, 6, 7])
@pytest.mark.parametrize("sigma", SIGMAS)
def test_moment_tables_match_per_moment_quadrature(N, sigma):
    # every moment, quotient (at two scales) and Pohozaev residual at every
    # tol, with no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for tol in TOLS:
            if N >= 4:
                assert_moments_match_mpmath(bubble_moments(N, sigma, tol))
            for scale in (1.0, 3.7):
                assert _rel(bubble_quotient(N, sigma, tol, scale), mp_quotient(N, sigma)) <= 1e-12, (N, sigma, tol, scale)
            if N >= 5:
                assert pohozaev_residual(N, sigma, tol) <= 1e-12


def test_moment_tables_match_near_two_and_on_other_balls():
    # the rows N = 3, 4, 6 at sigma = 1.9, where the former r-space panels
    # returned values up to 1.5e-5 off with estimates near 1e-11
    for N in (4, 6):
        assert_moments_match_mpmath(bubble_moments(N, 1.9, 1e-10))
    for N in (3, 4, 6):
        assert _rel(bubble_quotient(N, 1.9), mp_quotient(N, 1.9)) <= 1e-12
    # at sigma = 1.999 the logs of D and H (about -5.5e3 at N = 6) cancel
    # to O(1), so the quotient keeps about 1e-12 of eps * 5.5e3
    for N in (3, 4, 5, 6):
        assert _rel(bubble_quotient(N, 1.999), mp_quotient(N, 1.999)) <= 1e-11
    # the truncation ball moves with truncation_radius
    for sigma in (0.8, 1.99):
        for radius in (100.0, 3e5):
            assert_moments_match_mpmath(bubble_moments(4, sigma, 1e-8, radius), radius)


def test_r2_hs_at_n4_near_two_is_finite_and_matches_mpmath():
    # the former r-space panels put the far nodes of r2_hs past the double
    # range of r^3 here and returned NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert_moments_match_mpmath(bubble_moments(4, 1.95))


def test_moments_at_n4_past_the_former_tail_cutoff_match_mpmath():
    # at N = 4 r2_hs decays like r^-(3 - sigma): the radius that bounded its
    # tail in r-space left the double range for these sigma
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for sigma in (1.98, 1.99):
            assert_moments_match_mpmath(bubble_moments(4, sigma))


def test_moments_near_two_match_mpmath():
    # the former r-space error estimates missed tol at N = 5 (1.99) and in
    # the quotients below
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert_moments_match_mpmath(bubble_moments(5, 1.99, 1e-10))
        for N, sigma in ((3, 1.98), (4, 1.99), (5, 1.99)):
            assert _rel(bubble_quotient(N, sigma), mp_quotient(N, sigma)) <= 1e-12


# ---------------------------------------------------------------------------
# Per-n family quadrature (the expansion oracle)
# ---------------------------------------------------------------------------


def _family_integrals(m, lam, sigma, n, r_cut, order=24, levels_extra=0):
    nn = m.N
    om = sphere_area(nn - 1)
    p = critical_exponent(sigma, nn)
    amp = n ** ((nn - 2) / 2.0)
    r, w = (q.ravel() for q in gauss_panels(_panel_edges(r_cut, n, levels_extra), order))
    eta = smooth_cutoff((r - r_cut) / r_cut)
    deta = smooth_cutoff_deriv((r - r_cut) / r_cut) / r_cut
    wv = amp * bubble_value(n * r, nn, sigma)
    wg = amp * n * bubble_grad(n * r, nn, sigma)
    u = eta * wv
    du = deta * wv + eta * wg
    psi = m.warp(r) ** (nn - 1)
    kin = om * float(np.dot(w, du * du * psi))
    mass = om * float(np.dot(w, u * u * psi))
    hs = om * float(np.dot(w, r ** (-sigma) * np.abs(u) ** p * psi))
    return kin - lam * mass, hs ** (2.0 / p)


def quotient_series_ref(m, lam, sigma, n_list, r_cut=None):
    s = check_sigma(sigma, closed=False)
    if s <= 0.0:
        raise DomainError("quotient_series requires sigma in (0, 2)")
    ns = np.asarray(sorted(float(v) for v in n_list), dtype=float)
    if len(ns) == 0 or ns[0] < 2.0:
        raise DomainError("n_list must be increasing with min(n) >= 2")
    r_cut = cutoff_radius(r_cut, m.r_max)
    energy = np.empty_like(ns)
    denom = np.empty_like(ns)
    for i, n in enumerate(ns):
        e1, d1 = _family_integrals(m, lam, s, n, r_cut)
        e2, d2 = _family_integrals(m, lam, s, n, r_cut, order=32, levels_extra=2)
        if abs(e1 - e2) > 1e-8 * max(abs(e2), 1.0) or abs(d1 - d2) > 1e-8 * max(abs(d2), 1.0):
            raise DomainError(f"quadrature self-check failed at n={n}; refine the panels")
        energy[i] = e2
        denom[i] = d2
    return ExpansionSeries(
        n=ns, energy=energy, denom=denom, quotient=energy / denom,
        lam=lam, sigma=s, N=m.N, r_cut=float(r_cut),
    )


# ---------------------------------------------------------------------------
# Bit equality
# ---------------------------------------------------------------------------


def _outcome(fn, *args):
    """repr of the value (exact for every float) or of the error, and the
    set of RuntimeWarning messages emitted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = repr(fn(*args))
        except DomainError as exc:
            out = f"DomainError: {exc}"
    return out, {str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)}


def _assert_same(fn, ref, *args):
    out, warned = _outcome(fn, *args)
    ref_out, ref_warned = _outcome(ref, *args)
    assert out == ref_out, args
    assert warned <= ref_warned, args


@pytest.mark.parametrize("N", [4, 5, 6])
def test_stacked_series_matches_per_n_quadrature(N):
    m = unit_sphere(N)
    for lam in (-1.2, -1.0, -0.5, 0.0):
        for sigma in (0.5, 1.0, 1.5):
            new = quotient_series(m, lam, sigma, (4, 8, 16, 32, 64))
            ref = quotient_series_ref(m, lam, sigma, (4, 8, 16, 32, 64))
            for field in ("n", "energy", "denom", "quotient"):
                assert getattr(new, field).tobytes() == getattr(ref, field).tobytes(), (lam, sigma, field)
            assert (new.lam, new.sigma, new.N, new.r_cut) == (ref.lam, ref.sigma, ref.N, ref.r_cut)


def test_stacked_series_keeps_the_refusals():
    m = unit_sphere(5)
    for args in ((-1.0, 0.0, (4, 8)), (-1.0, 1.0, ()), (-1.0, 1.0, (1.5, 4)), (-1.0, 2.0, (4, 8))):
        _assert_same(quotient_series, quotient_series_ref, m, *args)
