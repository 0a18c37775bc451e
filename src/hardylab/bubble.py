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

The panel rules are fixed, so each is built once per process (``_near_rule``
by refinement level, ``_far_rule`` by kmax and level).  The profile is
evaluated once per node set: a ``_Profile`` table holds w, (w')^2, w^p,
r^{2-sigma} and r^{N-1} on a rule's nodes, and every moment of a call that
integrates on that rule forms its integrand from the table, with the
operations of the integrand's formula in its order.  Each moment keeps its
own tail cutoff and far panels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

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

@dataclass(frozen=True, eq=False)
class _Rule:
    """Gauss rules that share their panels: every rule's nodes in one flat
    array, and each rule's (panels, order) weights.  ``r`` holds the radii
    where the profile is evaluated; a far rule integrates over t = 1/r, so
    its ``r`` is 1/t and the integrand is divided by ``jac`` = t^2."""

    r: np.ndarray
    weights: tuple
    jac: np.ndarray | None = None

    def values(self, vals: np.ndarray) -> list[float]:
        """Each rule's integral from the integrand's values on ``r``."""
        out, start = [], 0
        for w in self.weights:
            out.append(float(np.add.reduce(vals[start : start + w.size].reshape(w.shape) * w, axis=None)))
            start += w.size
        return out


def _rule(edges: np.ndarray, orders=(16, 8), far: bool = False) -> _Rule:
    panels = [gauss_panels(edges, order) for order in orders]
    t = np.concatenate([nodes.ravel() for nodes, _ in panels])
    weights = tuple(w for _, w in panels)
    rule = _Rule(1.0 / t, weights, t**2) if far else _Rule(t, weights)
    for a in (rule.r, rule.jac, *weights):
        if a is not None:  # a cached rule is shared by every call
            a.flags.writeable = False
    return rule


def _halve(edges: np.ndarray, times: int) -> np.ndarray:
    """Split every panel at its midpoint, ``times`` times over."""
    for _ in range(times):
        edges = np.sort(np.concatenate((edges, 0.5 * (edges[:-1] + edges[1:]))))
    return edges


# The fixed rules are built once per process: the embedded 16- and 8-point
# rules on [0, 1] (edges 0, 2^-54, ..., 1/2, 1 clustered at the origin) and
# on the far range [1, 2^kmax] mapped to t = 1/r, each with its panels
# halved ``refine`` = 0, 1 or 2 times.  kmax follows each moment's tail
# cutoff, so only the 64 far rules used last are kept.
@lru_cache(maxsize=None)
def _near_rule(refine: int) -> _Rule:
    return _rule(_halve(np.concatenate(([0.0], 2.0 ** np.arange(-54, 1, dtype=float))), refine))


@lru_cache(maxsize=64)
def _far_rule(kmax: int, refine: int) -> _Rule:
    return _rule(_halve(2.0 ** np.arange(-kmax, 1, dtype=float), refine), far=True)


_PROBE_RADIUS = 64.0
_PROBE = _Rule(np.array([_PROBE_RADIUS]), ())  # where the tail constant is read; no weights


class _Profile:
    """The scaled bubble on one node array r > 0, with the operations of
    ``bubble_value`` and ``bubble_grad``: r^{2-sigma} and r^{N-1} at once,
    w, (w')^2 and w^p on first use, each shared by every moment evaluated
    on these nodes.  It keeps no reference to its ``_Bubble``, so a call's
    tables are freed when the call returns, not by the cycle collector."""

    def __init__(self, r: np.ndarray, n: int, s: float, scale: float, p: float):
        self.r, self.n, self.s, self.scale, self.p = r, n, s, scale, p
        self.r_kappa = r ** (2.0 - s)
        self.rn1 = r ** (n - 1)
        self._base = 1.0 + self.r_kappa

    @cached_property
    def w(self):
        return self.scale * self._base ** ((2.0 - self.n) / (2.0 - self.s))

    @cached_property
    def dw2(self):
        n, s = self.n, self.s
        dw = self.scale * ((2.0 - n) * self.r ** (1.0 - s) * self._base ** ((2.0 - n) / (2.0 - s) - 1.0))
        return dw**2

    @cached_property
    def wp(self):
        return self.w**self.p


# moment integrands on a profile table q, with om = |S^{N-1}|, and the
# analytic exponent p of their decay f(r) ~ C r^{-p}
_MOMENTS = {
    "dirichlet": (lambda q, om: om * q.dw2 * q.rn1, lambda n, s: n - 1.0),
    "mass2": (lambda q, om: om * q.w**2 * q.rn1, lambda n, s: n - 3.0),
    "hs_mass": (lambda q, om: om * q.r ** (-q.s) * q.wp * q.rn1, lambda n, s: n + 1.0 - s),
    "r2_dirichlet": (lambda q, om: om * q.r**2 * q.dw2 * q.rn1, lambda n, s: n - 3.0),
    "r2_hs": (lambda q, om: om * q.r_kappa * q.wp * q.rn1, lambda n, s: n - 1.0 - s),
}


class _Bubble:
    """The profile scale * w of one (N, sigma) and its table on each rule's
    nodes, built on the first moment that needs it."""

    def __init__(self, n: int, s: float, scale: float = 1.0):
        self.n, self.s, self.scale = n, s, scale
        self.om = sphere_area(n - 1)
        self.p = critical_exponent(s, n)
        self._tables: dict[_Rule, _Profile] = {}

    def integrand(self, name: str, rule: _Rule) -> np.ndarray:
        table = self._tables.get(rule)
        if table is None:
            table = self._tables[rule] = _Profile(rule.r, self.n, self.s, self.scale, self.p)
        vals = _MOMENTS[name][0](table, self.om)
        return vals if rule.jac is None else vals / rule.jac


def _embedded(bubble: _Bubble, name: str, rule: _Rule) -> tuple[float, float]:
    """16-point panel value and its distance to the embedded 8-point rule."""
    i16, i8 = rule.values(bubble.integrand(name, rule))
    return i16, abs(i16 - i8)


def _tail_cutoff(bubble: _Bubble, name: str, tail_power: float, abs_target: float) -> float:
    """Radius R with int_R^inf |f| <= abs_target, from f ~ C r^{-p} decay."""
    if tail_power <= 1.0:
        raise DomainError("integrand does not decay fast enough to integrate")
    probe = _PROBE_RADIUS
    c = abs(float(bubble.integrand(name, _PROBE)[0])) * probe**tail_power
    if c == 0.0:
        return probe
    # int_R^inf C r^-p dr = C R^{1-p}/(p-1)
    r = (c / (abs_target * (tail_power - 1.0))) ** (1.0 / (tail_power - 1.0))
    return max(probe, r)


def _improper_integral(bubble: _Bubble, name: str, tol: float) -> tuple[float, float]:
    """Integral of moment ``name`` over [0, inf) with relative tolerance tol.

    The analytic decay exponent p of the integrand f(r) ~ C r^{-p} fixes
    the truncation radius so the discarded tail stays below the requested
    tolerance.  The near-field part sets the absolute scale, so the whole
    scheme commutes with rescaling the integrand.
    """
    tail_power = _MOMENTS[name][1](bubble.n, bubble.s)
    near, err_near = _embedded(bubble, name, _near_rule(0))
    abs_target = 0.25 * tol * max(abs(near), 1e-300)
    r_cut = _tail_cutoff(bubble, name, tail_power, abs_target)
    kmax = max(2, int(math.ceil(math.log2(r_cut))))
    for refine in (0, 1, 2):
        if refine:
            near, err_near = _embedded(bubble, name, _near_rule(refine))
        far, err_far = _embedded(bubble, name, _far_rule(kmax, refine))
        value = near + far
        err = err_near + err_far + abs_target
        if err <= tol * max(abs(value), 1e-300):
            break
    return value, err


def _moment(bubble: _Bubble, name: str, tol: float) -> tuple[float, float]:
    """One finite moment with its error estimate.  Every integrand is
    positive; near sigma = 2 the profile's weight sits below the innermost
    panel edge and the value underflows to 0, which is refused."""
    value, err = _improper_integral(bubble, name, tol)
    if not value > 0.0:
        raise DomainError(
            f"sigma = {bubble.s!r} is too close to 2 for the panel quadrature ({name} underflows to 0)"
        )
    return value, err


def _ball_rule(r_max: float) -> _Rule:
    """16-point Gauss on the panels 1, 2, 4, ..., r_max of [1, r_max]."""
    kmax = int(math.ceil(math.log2(r_max)))
    return _rule(np.concatenate((2.0 ** np.arange(0, kmax, dtype=float), [r_max])), orders=(16,))


def _truncated_integral(bubble: _Bubble, name: str, ball: _Rule) -> float:
    """Integral of moment ``name`` over [0, r_max], ``ball`` covering [1, r_max]."""
    near, _ = _embedded(bubble, name, _near_rule(0))
    (far,) = ball.values(bubble.integrand(name, ball))
    return near + far


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
    bubble = _Bubble(n, s)
    balls = None
    out: dict[str, MomentValue] = {}
    for name in _MOMENTS:
        if n == 4 and name in _LOG_DIVERGENT:
            balls = balls or (_ball_rule(truncation_radius), _ball_rule(truncation_radius / 8.0))
            big, small = (_truncated_integral(bubble, name, ball) for ball in balls)
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
            value, err = _moment(bubble, name, tol)
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
    bubble = _Bubble(n, s, scale)
    hs_mass, _ = _moment(bubble, "hs_mass", tol)
    dirichlet, _ = _moment(bubble, "dirichlet", tol)
    return dirichlet / hs_mass ** (2.0 / bubble.p)


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
