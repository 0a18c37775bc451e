"""The Euclidean ground-state profile ("bubble") and its moment integrals.

The profile is the unnormalized extremal

    w(r) = (1 + r^{2-sigma})^{(2-N)/(2-sigma)},

whose Rayleigh quotient equals the sharp interpolated constant.  The
normalized variant (constant prefactor) is never needed: every quantity
exported here is either scale-invariant or documented as a raw moment.

The moments are improper radial integrals.  With kappa = 2 - sigma,
t = r^kappa and u = t/(1+t), each becomes c * int_0^1 u^{a-1} (1-u)^{b-1}
du with its own prefactor c and exponents (a, b) (``_beta_forms``); no
closed form is used, so the moments stay quadratures.  They share one
tanh-sinh rule (Takahasi and Mori, Publ. RIMS 9, 1974) on u in (0, 1):
1,077 nodes of step 1/128 in the transform variable, built once per
process, whose every other node is the rule of step 1/64.  A moment is one
exp of its log integrand a log u + b log(1-u) + log(du/dt), shifted by its
carried max, and two sums; its error estimate is the distance between the
two sums, the mass beyond both ends of the rule and the rounding of the
log integrand.  Against 30-digit mpmath every moment for N = 3-7 and
sigma in [0.1, 1.99] lies within 1e-13 relative, and within its estimate.
Where the peak of the integrand is too narrow for the step (at tol = 1e-10
from sigma = 1.994 at N = 7, 1.999 at N = 3) the step halves, at most
twice, until the estimate meets the tolerance.  The N = 4 moments
truncated to a ball take the same rule mapped onto [0, u_R].
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .constants import check_dimension, check_sigma, critical_exponent, hardy_sobolev_constant, sphere_area
from .errors import DomainError

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

_HALF_WIDTH = 538  # nodes t = k h, |k| <= 538 at h = 1/128: t in [-4.2, 4.2]
_LEVELS = 3  # steps 1/128, 1/256 and 1/512
_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class _Rule:
    """The tanh-sinh rule u = (1 + tanh((pi/2) sinh t))/2 on a uniform grid
    of step h in t, with du = pi cosh(t) u (1 - u) dt.  It keeps log u,
    log(1 - u) (both from the transform, so neither is formed as 1 - u)
    and log(pi cosh t); every other node is the rule of step 2h."""

    step: float
    log_u: np.ndarray
    log_v: np.ndarray
    log_jac: np.ndarray


@lru_cache(maxsize=None)
def _rule(level: int) -> _Rule:
    step = 2.0 ** -(7 + level)
    k = _HALF_WIDTH << level
    t = step * np.arange(-k, k + 1, dtype=float)
    x = np.pi * np.sinh(t)
    rule = _Rule(step, -np.logaddexp(0.0, -x), -np.logaddexp(0.0, x), np.log(np.pi * np.cosh(t)))
    for a in (rule.log_u, rule.log_v, rule.log_jac):  # a cached rule is shared by every call
        a.flags.writeable = False
    return rule


def _log_sum(rule: _Rule, f: np.ndarray) -> tuple[float, float, float]:
    """The rule on the log integrand f of t: the carried max of f, and the
    sums of exp(f - max) over the rule and over the rule of step 2h."""
    top = float(f.max())
    e = np.exp(f - top)
    return top, rule.step * float(e.sum()), 2.0 * rule.step * float(e[::2].sum())


def _log_beta(a: float, b: float, tol: float) -> tuple[float, float]:
    """log of int_0^1 u^{a-1} (1-u)^{b-1} du (a, b > 0) and its relative
    error estimate: the distance to the rule of twice the step, the mass
    beyond both ends of the t-range (u^a/a and (1-u)^b/b there) and the
    rounding: 2 eps per unit of the log integrand's size at its peak (the
    exponents' and the products' roundings) plus 128 eps (the exp and the
    sums).  The step halves while the estimate misses tol, which only a
    peak a few steps wide needs (a + b above about 1,300 at tol = 1e-10)."""
    for level in range(_LEVELS):
        rule = _rule(level)
        top, fine, coarse = _log_sum(rule, a * rule.log_u + b * rule.log_v + rule.log_jac)
        tails = math.exp(a * rule.log_u[0] - top) / a + math.exp(b * rule.log_v[-1] - top) / b
        rel = (abs(fine - coarse) + tails) / fine + 2.0 * _EPS * (abs(top) + 64.0)
        if rel <= tol:
            break
    return top + math.log(fine), rel


def _log_beta_truncated(a: float, b: float, t_r: float) -> float:
    """log of int_0^{u_R} u^{a-1} (1-u)^{b-1} du, u_R = t_R/(1 + t_R), on
    the step-1/128 rule mapped to u = u_R y, with 1 - u formed as
    v_R + u_R (1 - y) so that nothing cancels."""
    rule = _rule(0)
    u_r, v_r = t_r / (1.0 + t_r), 1.0 / (1.0 + t_r)
    log_1mu = np.log(v_r + u_r * np.exp(rule.log_v))
    f = a * (rule.log_u + math.log(u_r)) + (b - 1.0) * log_1mu + rule.log_v + rule.log_jac
    top, fine, _ = _log_sum(rule, f)
    return top + math.log(fine)


def _beta_forms(n: int, s: float) -> dict[str, tuple[float, float, float]]:
    """Each moment as c * int_0^1 u^{a-1} (1-u)^{b-1} du: (c, a, b) after
    t = r^kappa, u = t/(1+t), kappa = 2 - sigma.  With A = (N-sigma)/kappa
    the exponents are (A+1, A-1), (N/kappa, (N-4)/kappa), (A, A),
    (A+1+2/kappa, A-1-2/kappa) and (N/kappa+1, (N-2-sigma)/kappa); each is
    formed as one numerator over kappa, so it carries two roundings."""
    k = 2.0 - s
    om = sphere_area(n - 1) / k
    grad = (n - 2.0) ** 2 * om
    return {
        "dirichlet": (grad, (n + 2.0 - 2.0 * s) / k, (n - 2.0) / k),
        "mass2": (om, n / k, (n - 4.0) / k),
        "hs_mass": (om, (n - s) / k, (n - s) / k),
        "r2_dirichlet": (grad, (n + 4.0 - 2.0 * s) / k, (n - 4.0) / k),
        "r2_hs": (om, (n + 2.0 - s) / k, (n - 2.0 - s) / k),
    }


def _check_tolerance(n: int, s: float, tol: float, rel_errors: dict) -> None:
    """Refuse a moment {name: relative error estimate} that misses tol,
    once a call's moments are all computed, so that a refusal of a value
    itself comes first."""
    for name, rel in rel_errors.items():
        if not rel <= tol:
            raise DomainError(f"the quadrature of {name} misses tol = {tol!r} at N = {n}, sigma = {s!r} (error estimate {rel:.2g} relative)")


@dataclass(frozen=True)
class MomentValue:
    """One improper moment: value + error estimate, or the truncated data
    (value over a ball plus the log slope measured at its radius) when the
    integral diverges."""

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

    Each is a quadrature of its Beta-type integral on the tanh-sinh rule of
    the module docstring, within 1e-13 relative of 30-digit mpmath for
    N = 4-7 and sigma in [0.1, 1.99]; ``abs_error`` is the value times its
    relative estimate.  mass2 and r2_dirichlet diverge logarithmically
    exactly at N = 4; they are then flagged infinite and reported through
    their truncation over a ball of ``truncation_radius`` R together with
    the slope (I(R) - I(R/8)) / log 8 measured at R, which reaches the
    far-field slopes |S^3| (mass2) and 4 |S^3| (r2_dirichlet) only where
    R^{2-sigma} >> 1.  A finite moment outside the normal
    double range (it underflows like 4^{-(N-sigma)/(2-sigma)}: from
    sigma = 1.9945 at N = 5) or whose error estimate misses tol raises a
    DomainError.
    """
    n = check_dimension(N)
    s = check_sigma(sigma, closed=False)
    if n < 4:
        raise DomainError("bubble_moments requires N >= 4 (see bubble_quotient for N = 3)")
    if s <= 0.0:
        raise DomainError("bubble_moments requires sigma > 0")
    if not (tol > 0.0):
        raise DomainError(f"tol must be positive, got {tol!r}")
    if not 0.0 < truncation_radius < math.inf:
        raise DomainError(f"truncation_radius must be positive and finite, got {truncation_radius!r}")
    out: dict[str, MomentValue] = {}
    rel_errors = {}
    for name, (c, a, b) in _beta_forms(n, s).items():
        if n == 4 and name in _LOG_DIVERGENT:
            radii = (truncation_radius, truncation_radius / 8.0)
            big, small = (c * math.exp(_log_beta_truncated(a, b, r ** (2.0 - s))) for r in radii)
            out[name] = MomentValue(
                value=math.inf,
                abs_error=math.inf,
                finite=False,
                truncated_value=big,
                truncation_radius=truncation_radius,
                log_slope=(big - small) / math.log(8.0),
            )
            continue
        log_value, rel_errors[name] = _log_beta(a, b, tol)
        value = c * math.exp(log_value)
        if not sys.float_info.min <= value <= sys.float_info.max:
            raise DomainError(
                f"sigma = {s!r} is too close to 2 for N = {n}: {name} = {c!r} * exp({log_value!r}) leaves the normal double range"
            )
        out[name] = MomentValue(value=value, abs_error=value * rel_errors[name], finite=True)
    _check_tolerance(n, s, tol, rel_errors)
    return BubbleMoments(N=n, sigma=s, **out)


def bubble_quotient(
    N: int, sigma: float, tol: float = 1e-10, scale: float = 1.0
) -> float:
    """Rayleigh quotient of the bubble: dirichlet / hs_mass^{2/p_crit}.

    For every N >= 3 and sigma in [0, 2).  It is formed from the two
    moments' logarithms, so the factor 4^{-(N-sigma)/(2-sigma)} that both
    carry never underflows: the result lies within 1e-11 relative of
    ``hardy_sobolev_constant`` for N = 3-6 and sigma in [0, 1.999].  A
    moment whose error estimate misses tol raises a DomainError.  scale
    (positive and finite) multiplies the profile and must not change the
    result (homogeneity).
    """
    n = check_dimension(N)
    s = check_sigma(sigma, closed=False)
    if not 0.0 < scale < math.inf:
        raise DomainError(f"scale must be positive and finite, got {scale!r}")
    p = critical_exponent(s, n)
    forms = _beta_forms(n, s)
    logs, rel_errors = {}, {}
    for name, power in (("hs_mass", p), ("dirichlet", 2.0)):
        c, a, b = forms[name]
        log_value, rel_errors[name] = _log_beta(a, b, tol)
        logs[name] = math.log(c) + power * math.log(scale) + log_value
    _check_tolerance(n, s, tol, rel_errors)
    return math.exp(logs["dirichlet"] - 2.0 / p * logs["hs_mass"])


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
