"""Closed-form sharp constants for the Hardy/Sobolev family of inequalities.

All formulas are evaluated in log space through the standard library's
``math.lgamma``, which keeps them stable for the near-endpoint exponents
(sigma close to 2) where the Gamma arguments grow like 1/(2 - sigma).

Conventions, fixed once here and validated numerically against the bubble
quotient (see tests):

* ``sphere_area(n)`` is the surface measure of the unit n-sphere embedded in
  R^{n+1}, so ``sphere_area(2) == 4*pi``.
* The Sobolev constant uses ``sphere_area(N)``; the interpolated
  Hardy-Sobolev constant uses ``sphere_area(N-1)`` inside its bracket, with
  Gamma arguments ``(N-sigma)/(2-sigma)`` and ``2(N-sigma)/(2-sigma)``.
  With these readings the sigma -> 0 value equals the Sobolev constant and
  the sigma -> 2 limit equals the Hardy constant; no other combination does
  both.
"""

from __future__ import annotations

import math

from .errors import DomainError

__all__ = [
    "log_gamma",
    "sphere_area",
    "critical_exponent",
    "hardy_constant",
    "sobolev_constant",
    "hardy_sobolev_constant",
    "check_dimension",
    "check_sigma",
]


def check_dimension(N) -> int:
    """Validate an integer dimension N >= 3."""
    n = int(N) if -math.inf < N < math.inf else None  # NaN fails too
    if n != N or n < 3:
        raise DomainError(f"dimension must be an integer >= 3, got {N!r}")
    return n


def check_sigma(sigma, *, closed: bool = True) -> float:
    """Validate a singular-weight exponent.

    ``closed=True`` accepts the closed interval [0, 2] (constants);
    ``closed=False`` demands the open right endpoint sigma < 2 (solvers
    handle sigma = 2 through the linear pencil instead).
    """
    s = float(sigma)
    hi_ok = s <= 2.0 if closed else s < 2.0
    if not (0.0 <= s and hi_ok):
        kind = "[0, 2]" if closed else "[0, 2)"
        raise DomainError(f"sigma must lie in {kind}, got {sigma!r}")
    return s


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0 (``math.lgamma``)."""
    x = float(x)
    if x <= 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x!r}")
    return math.lgamma(x)


def sphere_area(n: int) -> float:
    """Surface measure |S^n| = 2 pi^{(n+1)/2} / Gamma((n+1)/2) for n >= 1."""
    m = int(n)
    if m != n or m < 1:
        raise DomainError(f"sphere_area requires an integer n >= 1, got {n!r}")
    half = 0.5 * (m + 1)
    return math.exp(math.log(2.0) + half * math.log(math.pi) - log_gamma(half))


def critical_exponent(sigma: float, N: int) -> float:
    """Critical power 2(N - sigma)/(N - 2); 2N/(N-2) at sigma=0, 2 at sigma=2."""
    n = check_dimension(N)
    s = check_sigma(sigma, closed=True)
    return 2.0 * (n - s) / (n - 2.0)


def hardy_constant(N: int) -> float:
    """Sharp constant ((N-2)/2)^2 of the inverse-square inequality."""
    n = check_dimension(N)
    return ((n - 2.0) / 2.0) ** 2


def sobolev_constant(N: int) -> float:
    """Sharp Sobolev constant N(N-2)/4 * |S^N|^{2/N}."""
    n = check_dimension(N)
    return n * (n - 2.0) / 4.0 * sphere_area(n) ** (2.0 / n)


def hardy_sobolev_constant(N: int, sigma: float) -> float:
    """Sharp interpolated constant for sigma in [0, 2).

    S = (N-2)(N-sigma) * [ |S^{N-1}|/(2-sigma) * Gamma(z)^2 / Gamma(2z) ]^{(2-sigma)/(N-sigma)}
    with z = (N-sigma)/(2-sigma).  At sigma = 2 use ``hardy_constant``
    (limit endpoint).
    """
    n = check_dimension(N)
    s = check_sigma(sigma, closed=True)
    if s == 2.0:
        raise DomainError("sigma = 2 is the Hardy endpoint; use hardy_constant(N)")
    z = (n - s) / (2.0 - s)
    log_bracket = (
        math.log(sphere_area(n - 1))
        - math.log(2.0 - s)
        + 2.0 * log_gamma(z)
        - log_gamma(2.0 * z)
    )
    return (n - 2.0) * (n - s) * math.exp((2.0 - s) / (n - s) * log_bracket)
