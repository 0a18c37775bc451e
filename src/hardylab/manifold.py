"""Rotationally symmetric model manifolds (space forms) through their warp.

Only the three constant-curvature models are provided: their warp functions
are closed-form, the geodesic distance from the pole is the radial
coordinate itself, and the scalar curvature at the pole is exact.  The
hyperbolic cap is a negative-curvature probe used with a Dirichlet boundary
(the compact-manifold statements do not cover it; it is labeled as an
extension wherever it appears).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import check_dimension
from .errors import DomainError

__all__ = [
    "ModelManifold",
    "make_manifold",
    "unit_sphere",
    "euclidean_ball",
    "hyperbolic_cap",
    "volume_density",
    "sqrt_g_density",
    "scalar_curvature_at_pole",
    "density_expansion_residual",
    "curvature_criterion",
]

KINDS = ("euclidean-ball", "sphere", "hyperbolic-cap")


@dataclass(frozen=True)
class ModelManifold:
    kind: str
    a: float  # curvature radius (unused scale 1.0 for the euclidean ball)
    N: int
    r_max: float  # domain radius in geodesic distance from the pole

    @property
    def full_sphere(self) -> bool:
        return self.kind == "sphere" and math.isclose(self.r_max, math.pi * self.a)

    def warp(self, r):
        """psi(r): r, a sin(r/a) or a sinh(r/a)."""
        r = np.asarray(r, dtype=float)
        if self.kind == "euclidean-ball":
            out = r
        elif self.kind == "sphere":
            out = self.a * np.sin(r / self.a)
        else:
            out = self.a * np.sinh(r / self.a)
        return out if out.ndim else float(out)

    def warp_over_r(self, r):
        """psi(r)/r, continuous value 1 at r = 0."""
        r = np.asarray(r, dtype=float)
        x = r / self.a
        if self.kind == "euclidean-ball":
            out = np.ones_like(r)
        elif self.kind == "sphere":
            out = np.sinc(x / np.pi)
        else:
            small = np.abs(x) < 1e-6
            safe = np.where(small, 1.0, x)
            out = np.where(small, 1.0 + x * x / 6.0, np.sinh(safe) / safe)
        return out if out.ndim else float(out)


def make_manifold(kind: str, a: float, N: int, r_max: float) -> ModelManifold:
    """Validated descriptor.  Spheres must satisfy r_max <= pi*a (antipode)."""
    if kind not in KINDS:
        raise DomainError(f"kind must be one of {KINDS}, got {kind!r}")
    n = check_dimension(N)
    a = float(a)
    r_max = float(r_max)
    if not 0.0 < a < math.inf:  # NaN fails too
        raise DomainError(f"scale must be positive and finite, got {a!r}")
    if not 0.0 < r_max < math.inf:
        raise DomainError(f"r_max must be positive and finite, got {r_max!r}")
    if kind == "sphere" and r_max > math.pi * a * (1.0 + 1e-12):
        raise DomainError(
            f"sphere domain cannot extend past the antipode: r_max <= pi*a = {math.pi * a}"
        )
    return ModelManifold(kind=kind, a=a, N=n, r_max=min(r_max, math.pi * a) if kind == "sphere" else r_max)


def unit_sphere(N: int) -> ModelManifold:
    return make_manifold("sphere", 1.0, N, math.pi)


def euclidean_ball(N: int, r_max: float = 1.0) -> ModelManifold:
    return make_manifold("euclidean-ball", 1.0, N, r_max)


def hyperbolic_cap(N: int, a: float = 1.0, r_max: float = 1.0) -> ModelManifold:
    return make_manifold("hyperbolic-cap", a, N, r_max)


def _check_radius(m: ModelManifold, r) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0) or np.any(r > m.r_max * (1.0 + 1e-12)):
        raise DomainError(f"radius outside [0, {m.r_max}]")
    return r


def volume_density(m: ModelManifold, r):
    """Radial volume density psi(r)^{N-1}.

    Radial integrands integrate as |S^{N-1}| * psi(r)^{N-1} dr.
    """
    r = _check_radius(m, r)
    out = m.warp(r) ** (m.N - 1)
    return out if np.ndim(out) else float(out)


def sqrt_g_density(m: ModelManifold, r):
    """Normal-coordinate density sqrt|g|(r) = (psi(r)/r)^{N-1}; equals 1 at r=0."""
    r = _check_radius(m, r)
    out = m.warp_over_r(r) ** (m.N - 1)
    return out if np.ndim(out) else float(out)


def scalar_curvature_at_pole(m: ModelManifold) -> float:
    """N(N-1)/a^2 on the sphere, 0 flat, -N(N-1)/a^2 hyperbolic."""
    base = m.N * (m.N - 1) / m.a**2
    if m.kind == "sphere":
        return base
    if m.kind == "hyperbolic-cap":
        return -base
    return 0.0


def density_expansion_residual(m: ModelManifold) -> float:
    """Fit sqrt|g|(r) ~ 1 - c r^2 on (0, 0.1] and return |c - S_g(p0)/(6N)|.

    Ties the curvature value at the pole to the quadratic term of the
    volume-density expansion.  A quartic nuisance term is carried in the
    fit so the quadratic coefficient is read off cleanly; without it the
    quartic remainder alone exceeds the 1e-4 residual contract.
    """
    r = np.linspace(0.002, min(0.1, 0.5 * m.r_max), 64)
    y = 1.0 - sqrt_g_density(m, r)
    design = np.column_stack([r**2, r**4])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    return abs(float(coef[0]) - scalar_curvature_at_pole(m) / (6.0 * m.N))


def curvature_criterion(m: ModelManifold, lam: float) -> bool:
    """Strict comparison S_g(p0) > -6*lambda.

    The supporting statement concerns lambda < 0; the comparison itself is
    evaluated for any lambda and callers attach the regime flag.
    """
    return scalar_curvature_at_pole(m) > -6.0 * float(lam)
