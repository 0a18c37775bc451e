"""The moment tables of ``bubble`` and the stacked family quadrature of
``expansion.quotient_series`` must return the same bits as the plain
quadratures below, which evaluate the profile afresh for every moment
(``_integrands`` closures integrated one by one) and for every
concentration index n (``_family_integrals`` called per n).  They are the
oracles: the same rules, the same IEEE operations in the same order, with
no value shared between integrals.  Errors must carry the same message, and
no RuntimeWarning may appear that the oracle does not also emit."""

import math
import warnings

import numpy as np
import pytest

from hardylab.bubble import bubble_grad, bubble_moments, bubble_quotient, bubble_value, pohozaev_residual
from hardylab.bubble import BubbleMoments, MomentValue
from hardylab.constants import (
    check_dimension,
    check_sigma,
    critical_exponent,
    hardy_sobolev_constant,
    sphere_area,
)
from hardylab.errors import DomainError
from hardylab.expansion import ExpansionSeries, _panel_edges, quotient_series
from hardylab.forms import gauss_panels
from hardylab.manifold import unit_sphere
from hardylab.minimizer import cutoff_radius, smooth_cutoff, smooth_cutoff_deriv

# ---------------------------------------------------------------------------
# Per-moment quadrature (the bubble oracle)
# ---------------------------------------------------------------------------


def _panels_value(f, edges, order):
    nodes, weights = gauss_panels(edges, order)
    return float(np.sum(f(nodes.ravel()).reshape(nodes.shape) * weights))


def _embedded(f, edges):
    i16 = _panels_value(f, edges, 16)
    return i16, abs(i16 - _panels_value(f, edges, 8))


def _halve(edges):
    return np.sort(np.concatenate((edges, 0.5 * (edges[:-1] + edges[1:]))))


def _integral_01(f, refine=0):
    edges = np.concatenate(([0.0], 2.0 ** np.arange(-54, 1, dtype=float)))
    for _ in range(refine):
        edges = _halve(edges)
    return _embedded(f, edges)


def _tail_cutoff(f, tail_power, abs_target):
    if tail_power <= 1.0:
        raise DomainError("integrand does not decay fast enough to integrate")
    probe = 64.0
    c = abs(float(np.asarray(f(np.array([probe])))[0])) * probe**tail_power
    if c == 0.0:
        return probe
    r = (c / (abs_target * (tail_power - 1.0))) ** (1.0 / (tail_power - 1.0))
    return max(probe, r)


def _improper_integral(f, tail_power, tol):
    near, err_near = _integral_01(f)
    abs_target = 0.25 * tol * max(abs(near), 1e-300)
    r_cut = _tail_cutoff(f, tail_power, abs_target)
    kmax = max(2, int(math.ceil(math.log2(r_cut))))
    g = lambda t: f(1.0 / t) / t**2
    edges = 2.0 ** np.arange(-kmax, 1, dtype=float)
    for refine in (0, 1, 2):
        if refine:
            near, err_near = _integral_01(f, refine=refine)
            edges = _halve(edges)
        far, err_far = _embedded(g, edges)
        value = near + far
        err = err_near + err_far + abs_target
        if err <= tol * max(abs(value), 1e-300):
            break
    return value, err


def _moment(table, name, n, sigma, tol):
    f, tail_power = table[name]
    value, err = _improper_integral(f, tail_power, tol)
    if not math.isfinite(value):
        raise DomainError(f"the panel quadrature of {name} leaves the double range at N = {n}, sigma = {sigma!r} (value {value!r})")
    if not value > 0.0:
        raise DomainError(f"sigma = {sigma!r} is too close to 2 for the panel quadrature ({name} underflows to 0)")
    return value, err


def _truncated_integral(f, r_max):
    near, _ = _integral_01(f)
    kmax = int(math.ceil(math.log2(r_max)))
    edges = np.concatenate((2.0 ** np.arange(0, kmax, dtype=float), [r_max]))
    return near + _panels_value(f, edges, 16)


def _integrands(n, s, scale=1.0):
    om = sphere_area(n - 1)
    p_crit = critical_exponent(s, n)
    w = lambda r: scale * bubble_value(r, n, s)
    dw = lambda r: scale * bubble_grad(r, n, s)
    return {
        "dirichlet": (lambda r: om * dw(r) ** 2 * r ** (n - 1), n - 1.0),
        "mass2": (lambda r: om * w(r) ** 2 * r ** (n - 1), n - 3.0),
        "hs_mass": (lambda r: om * r ** (-s) * w(r) ** p_crit * r ** (n - 1), n + 1.0 - s),
        "r2_dirichlet": (lambda r: om * r**2 * dw(r) ** 2 * r ** (n - 1), n - 3.0),
        "r2_hs": (lambda r: om * r ** (2.0 - s) * w(r) ** p_crit * r ** (n - 1), n - 1.0 - s),
    }


def bubble_moments_ref(N, sigma, tol=1e-8, truncation_radius=1e4):
    n = check_dimension(N)
    s = check_sigma(sigma, closed=False)
    if n < 4:
        raise DomainError("bubble_moments requires N >= 4 (see bubble_quotient for N = 3)")
    if s <= 0.0:
        raise DomainError("bubble_moments requires sigma > 0")
    if not (tol > 0.0):
        raise DomainError(f"tol must be positive, got {tol!r}")
    table = _integrands(n, s)
    out = {}
    for name, (f, _) in table.items():
        if n == 4 and name in ("mass2", "r2_dirichlet"):
            big = _truncated_integral(f, truncation_radius)
            small = _truncated_integral(f, truncation_radius / 8.0)
            out[name] = MomentValue(
                value=math.inf,
                abs_error=math.inf,
                finite=False,
                truncated_value=big,
                truncation_radius=truncation_radius,
                log_slope=(big - small) / math.log(8.0),
            )
        else:
            value, err = _moment(table, name, n, s, tol)
            out[name] = MomentValue(value=value, abs_error=err, finite=True)
    return BubbleMoments(N=n, sigma=s, **out)


def bubble_quotient_ref(N, sigma, tol=1e-10, scale=1.0):
    n = check_dimension(N)
    s = check_sigma(sigma, closed=False)
    table = _integrands(n, s, scale=scale)
    hs_mass, _ = _moment(table, "hs_mass", n, s, tol)
    dirichlet, _ = _moment(table, "dirichlet", n, s, tol)
    return dirichlet / hs_mass ** (2.0 / critical_exponent(s, n))


def pohozaev_residual_ref(N, sigma, tol=1e-10):
    n = check_dimension(N)
    s = check_sigma(sigma, closed=False)
    if n < 5:
        raise DomainError("pohozaev_residual requires N >= 5 (divergent terms otherwise)")
    m = bubble_moments_ref(n, s, tol=tol)
    p_crit = critical_exponent(s, n)
    coeff = hardy_sobolev_constant(n, s) * m.hs_mass.value ** ((2.0 - p_crit) / p_crit)
    lhs = m.r2_dirichlet.value
    return abs(lhs - (n * m.mass2.value + coeff * m.r2_hs.value)) / abs(lhs)


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


SIGMAS = (0.1, 0.4, 0.7, 1.0, 1.3, 1.6, 1.9)
TOLS = (1e-6, 1e-8, 1e-10, 1e-12)


@pytest.mark.parametrize("N", [3, 4, 5, 6, 7])
@pytest.mark.parametrize("sigma", SIGMAS)
def test_moment_tables_match_per_moment_quadrature(N, sigma):
    for tol in TOLS:
        _assert_same(bubble_moments, bubble_moments_ref, N, sigma, tol)
        _assert_same(bubble_quotient, bubble_quotient_ref, N, sigma, tol)
        _assert_same(bubble_quotient, bubble_quotient_ref, N, sigma, tol, 3.7)
        _assert_same(pohozaev_residual, pohozaev_residual_ref, N, sigma, tol)


def test_moment_tables_match_near_two_and_on_other_balls():
    # sigma = 1.9 refuses N = 4, whose r2_hs is NaN (r^3 overflows on the
    # far panels, which the oracle warns of); 1.999 underflows
    # hs_mass; the truncation ball moves with truncation_radius
    for N, sigma in ((4, 1.9), (3, 1.999), (5, 1.999)):
        _assert_same(bubble_moments, bubble_moments_ref, N, sigma)
        _assert_same(bubble_quotient, bubble_quotient_ref, N, sigma)
    for radius in (100.0, 3e5):
        _assert_same(bubble_moments, bubble_moments_ref, 4, 0.8, 1e-8, radius)


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
