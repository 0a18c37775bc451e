"""The Euclidean ground-state profile ("bubble") and its moment integrals.

The profile is the unnormalized extremal

    w(r) = (1 + r^{2-sigma})^{(2-N)/(2-sigma)},

whose Rayleigh quotient equals the sharp interpolated constant.  The
normalized variant (constant prefactor) is never needed: every quantity
exported here is either scale-invariant or documented as a raw moment.

Moments are improper radial integrals computed by composite Gauss panels on
a geometric subdivision clustered at r = 0 (absorbing the r^{-sigma}
singularity), with the far range mapped through r -> 1/t and truncated at a
radius chosen from the analytic power-law decay of each integrand.  Error
estimates come from comparing embedded 8- and 16-point rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import check_dimension, check_sigma, critical_exponent, hardy_sobolev_constant, sphere_area
from .errors import DomainError
from .forms import gauss_panels

__all__ = [
    "bubble_value",
    "bubble_grad",
    "BubbleMoments",
    "MomentValue",
    "bubble_moments",
    "bubble_quotient",
    "pohozaev_residual",
]


def bubble_value(r, N: int, sigma: float):
    """w(r) = (1 + r^{2-sigma})^{(2-N)/(2-sigma)}; w(0) = 1, decreasing."""
    n = check_dimension(N)
    s = check_sigma(sigma, closed=False)
    r = np.asarray(r, dtype=float)
    out = (1.0 + r ** (2.0 - s)) ** ((2.0 - n) / (2.0 - s))
    return out if out.ndim else float(out)


def bubble_grad(r, N: int, sigma: float):
    """Radial derivative w'(r) = (2-N) r^{1-sigma} (1+r^{2-sigma})^{(2-N)/(2-sigma)-1}.

    At r = 0 the limit is 0 for sigma < 1 and 2-N for sigma = 1; for
    sigma > 1 the derivative diverges (the profile has a cusp) and -inf is
    returned.
    """
    n = check_dimension(N)
    s = check_sigma(sigma, closed=False)
    r = np.asarray(r, dtype=float)
    expo = (2.0 - n) / (2.0 - s) - 1.0
    with np.errstate(divide="ignore"):
        rpow = np.where(r > 0.0, r, 1.0) ** (1.0 - s)
    out = (2.0 - n) * rpow * (1.0 + np.where(r > 0.0, r, 0.0) ** (2.0 - s)) ** expo
    if s < 1.0:
        zero_val = 0.0
    elif s == 1.0:
        zero_val = 2.0 - n
    else:
        zero_val = -math.inf
    out = np.where(r > 0.0, out, zero_val)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# quadrature machinery
# ---------------------------------------------------------------------------

def _panels_value(f, edges: np.ndarray, order: int) -> float:
    nodes, weights = gauss_panels(edges, order)
    return float(np.sum(f(nodes.ravel()).reshape(nodes.shape) * weights))


def _embedded(f, edges: np.ndarray) -> tuple[float, float]:
    """16-point panel value and its distance to the embedded 8-point rule."""
    i16 = _panels_value(f, edges, 16)
    return i16, abs(i16 - _panels_value(f, edges, 8))


def _halve(edges: np.ndarray) -> np.ndarray:
    """Split every panel at its midpoint."""
    return np.sort(np.concatenate((edges, 0.5 * (edges[:-1] + edges[1:]))))


def _geometric_edges(lo_exp: int) -> np.ndarray:
    """Edges 0, 2^{-lo_exp}, ..., 1/2, 1 clustered at the origin."""
    return np.concatenate(([0.0], 2.0 ** np.arange(-lo_exp, 1, dtype=float)))


def _integral_01(f, refine: int = 0) -> tuple[float, float]:
    edges = _geometric_edges(54)
    for _ in range(refine):
        edges = _halve(edges)
    return _embedded(f, edges)


def _tail_cutoff(f, tail_power: float, abs_target: float) -> float:
    """Radius R with int_R^inf |f| <= abs_target, from f ~ C r^{-p} decay."""
    if tail_power <= 1.0:
        raise DomainError("integrand does not decay fast enough to integrate")
    probe = 64.0
    c = abs(float(np.asarray(f(np.array([probe])))[0])) * probe**tail_power
    if c == 0.0:
        return probe
    # int_R^inf C r^-p dr = C R^{1-p}/(p-1)
    r = (c / (abs_target * (tail_power - 1.0))) ** (1.0 / (tail_power - 1.0))
    return max(probe, r)


def _improper_integral(f, tail_power: float, tol: float) -> tuple[float, float]:
    """Integral of f over [0, inf) with relative tolerance tol.

    ``tail_power`` is the analytic decay exponent p of f(r) ~ C r^{-p}; it
    fixes the truncation radius so the discarded tail stays below the
    requested tolerance.  The near-field part sets the absolute scale, so
    the whole scheme commutes with rescaling the integrand.
    """
    near, err_near = _integral_01(f)
    abs_target = 0.25 * tol * max(abs(near), 1e-300)
    r_cut = _tail_cutoff(f, tail_power, abs_target)
    kmax = max(2, int(math.ceil(math.log2(r_cut))))
    # map [1, R] through r = 1/t onto [1/R, 1]
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


def _moment(table: dict, name: str, sigma: float, tol: float) -> tuple[float, float]:
    """One finite moment of ``table`` with its error estimate.  Every
    integrand is positive; near sigma = 2 the profile's weight sits below
    the innermost panel edge and the value underflows to 0, which is
    refused."""
    f, tail_power = table[name]
    value, err = _improper_integral(f, tail_power, tol)
    if not value > 0.0:
        raise DomainError(f"sigma = {sigma!r} is too close to 2 for the panel quadrature ({name} underflows to 0)")
    return value, err


def _truncated_integral(f, r_max: float) -> float:
    """Integral of f over [0, r_max] (geometric panels, 16-point Gauss)."""
    near, _ = _integral_01(f)
    kmax = int(math.ceil(math.log2(r_max)))
    edges = np.concatenate((2.0 ** np.arange(0, kmax, dtype=float), [r_max]))
    return near + _panels_value(f, edges, 16)


# ---------------------------------------------------------------------------
# moment integrands: value and analytic tail exponent
# ---------------------------------------------------------------------------

def _integrands(N: int, sigma: float, scale: float = 1.0):
    n, s = N, sigma
    om = sphere_area(n - 1)
    p_crit = critical_exponent(s, n)
    w = lambda r: scale * bubble_value(r, n, s)
    dw = lambda r: scale * bubble_grad(r, n, s)
    return {
        "dirichlet": (lambda r: om * dw(r) ** 2 * r ** (n - 1), n - 1.0),
        "mass2": (lambda r: om * w(r) ** 2 * r ** (n - 1), n - 3.0),
        "hs_mass": (
            lambda r: om * r ** (-s) * w(r) ** p_crit * r ** (n - 1),
            n + 1.0 - s,
        ),
        "r2_dirichlet": (lambda r: om * r**2 * dw(r) ** 2 * r ** (n - 1), n - 3.0),
        "r2_hs": (
            lambda r: om * r ** (2.0 - s) * w(r) ** p_crit * r ** (n - 1),
            n - 1.0 - s,
        ),
    }


@dataclass(frozen=True)
class MomentValue:
    """One improper moment: value + error estimate, or the truncated data
    (value over a ball plus fitted log slope) when the integral diverges."""

    value: float
    abs_error: float
    finite: bool
    truncated_value: float | None = None
    truncation_radius: float | None = None
    log_slope: float | None = None


@dataclass(frozen=True)
class BubbleMoments:
    N: int
    sigma: float
    dirichlet: MomentValue
    mass2: MomentValue
    hs_mass: MomentValue
    r2_dirichlet: MomentValue
    r2_hs: MomentValue


_LOG_DIVERGENT = ("mass2", "r2_dirichlet")


def bubble_moments(
    N: int, sigma: float, tol: float = 1e-8, truncation_radius: float = 1e4
) -> BubbleMoments:
    """All five moments for N >= 4, 0 < sigma < 2.

    mass2 and r2_dirichlet diverge logarithmically exactly at N = 4; they
    are then flagged infinite and reported through their truncation over a
    ball of ``truncation_radius`` together with the fitted d(value)/d(log R)
    slope.  A finite moment that underflows to 0 (sigma too close to 2, as
    in bubble_quotient) raises a DomainError.
    """
    n = check_dimension(N)
    s = check_sigma(sigma, closed=False)
    if n < 4:
        raise DomainError("bubble_moments requires N >= 4 (see bubble_quotient for N = 3)")
    if s <= 0.0:
        raise DomainError("bubble_moments requires sigma > 0")
    if not (tol > 0.0):
        raise DomainError(f"tol must be positive, got {tol!r}")
    table = _integrands(n, s)
    out: dict[str, MomentValue] = {}
    for name, (f, tail_power) in table.items():
        if n == 4 and name in _LOG_DIVERGENT:
            big = _truncated_integral(f, truncation_radius)
            small = _truncated_integral(f, truncation_radius / 8.0)
            slope = (big - small) / math.log(8.0)
            out[name] = MomentValue(
                value=math.inf,
                abs_error=math.inf,
                finite=False,
                truncated_value=big,
                truncation_radius=truncation_radius,
                log_slope=slope,
            )
        else:
            value, err = _moment(table, name, s, tol)
            out[name] = MomentValue(value=value, abs_error=err, finite=True)
    return BubbleMoments(N=n, sigma=s, **out)


def bubble_quotient(
    N: int, sigma: float, tol: float = 1e-10, scale: float = 1.0
) -> float:
    """Rayleigh quotient of the bubble: dirichlet / hs_mass^{2/p_crit}.

    For every N >= 3 and sigma in [0, 2), but accurate only away from
    sigma = 2: the profile varies on the scale log r ~ 1/(2 - sigma), so its
    weight moves below the innermost panel edge 2^-54.  At N = 3 the result
    is 2e-8 low at sigma = 1.9 and 0.8% low at sigma = 1.99; where hs_mass
    underflows to 0 (sigma = 1.999) a DomainError is raised.  scale
    multiplies the profile and must not change the result (homogeneity).
    """
    n = check_dimension(N)
    s = check_sigma(sigma, closed=False)
    table = _integrands(n, s, scale=scale)
    hs_mass, _ = _moment(table, "hs_mass", s, tol)
    dirichlet, _ = _moment(table, "dirichlet", s, tol)
    p_crit = critical_exponent(s, n)
    return dirichlet / hs_mass ** (2.0 / p_crit)


def pohozaev_residual(N: int, sigma: float, tol: float = 1e-10) -> float:
    """Relative residual of the moment identity

        r2_dirichlet = N * mass2 + S * hs_mass^{(2-p)/p} * r2_hs,   p = 2(N - sigma)/(N - 2),

    which is the constraint-normalized form of the identity obtained by
    pairing the profile equation with |x|^2 w.  All terms are finite only
    for N >= 5; N = 4 is refused (its truncated analog lives in the
    expansion module).
    """
    n = check_dimension(N)
    s = check_sigma(sigma, closed=False)
    if n < 5:
        raise DomainError("pohozaev_residual requires N >= 5 (divergent terms otherwise)")
    m = bubble_moments(n, s, tol=tol)
    p_crit = critical_exponent(s, n)
    s_best = hardy_sobolev_constant(n, s)
    coeff = s_best * m.hs_mass.value ** ((2.0 - p_crit) / p_crit)
    lhs = m.r2_dirichlet.value
    rhs = n * m.mass2.value + coeff * m.r2_hs.value
    return abs(lhs - rhs) / abs(lhs)
