"""Graded radial grids and discrete forms for the radial Rayleigh quotient.

Piecewise-linear elements on a power-graded grid r_i = r_max (i/M)^gamma.
The Dirichlet form K and the plain mass form are assembled consistently
(symmetric tridiagonal, exact per-cell 16-point Gauss in the weight
r-power times psi^{N-1}); the singular sigma=2 weight is a row-sum lumped
diagonal, which keeps the eigenvalue pencil tridiagonal-vs-diagonal and is
exact on constants.  All forms carry the full surface factor |S^{N-1}|, so
quotient values are directly comparable to the sharp constants.

The sigma < 2 constraint functional and its first variation are evaluated
from per-cell Gauss tables through the kernels module (vectorized NumPy).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .constants import check_sigma, critical_exponent, sphere_area
from .errors import DomainError
from .manifold import ModelManifold

__all__ = [
    "RadialGrid",
    "build_grid",
    "refine_grid",
    "QuadraticForms",
    "assemble_forms",
    "assemble_lumped_weight",
    "hs_functional",
    "hs_gradient",
    "evaluate_quotient",
    "tri_quadform",
    "tri_matvec",
]

_BCS = ("dirichlet", "reflected")
_GAUSS_ORDER = 16


@dataclass(frozen=True)
class RadialGrid:
    nodes: np.ndarray  # strictly increasing, nodes[0] == 0
    gamma: float
    bc: str

    @property
    def r_max(self) -> float:
        return float(self.nodes[-1])

    @property
    def ncell(self) -> int:
        return len(self.nodes) - 1


def build_grid(r_max: float, M: int, gamma: float = 2.0, bc: str = "dirichlet") -> RadialGrid:
    """Graded grid r_i = r_max (i/M)^gamma, i = 0..M; nested under M -> 2M."""
    if int(M) != M or M < 8:
        raise DomainError(f"M must be an integer >= 8, got {M!r}")
    gamma = float(gamma)
    if not (1.0 <= gamma <= 4.0):
        raise DomainError(f"grading exponent must lie in [1, 4], got {gamma!r}")
    if bc not in _BCS:
        raise DomainError(f"bc must be one of {_BCS}, got {bc!r}")
    if r_max <= 0.0:
        raise DomainError(f"r_max must be positive, got {r_max!r}")
    i = np.arange(int(M) + 1, dtype=float)
    nodes = r_max * (i / M) ** gamma
    return RadialGrid(nodes=nodes, gamma=gamma, bc=bc)


def refine_grid(grid: RadialGrid) -> RadialGrid:
    """Dyadic refinement M -> 2M (node set contains the original)."""
    return build_grid(grid.r_max, 2 * grid.ncell, grid.gamma, grid.bc)


@dataclass
class QuadraticForms:
    grid: RadialGrid
    manifold: ModelManifold
    sigma: float
    # tridiagonal Dirichlet form (diag, offdiag) and mass form
    kd: np.ndarray
    ke: np.ndarray
    md: np.ndarray
    me: np.ndarray
    # lumped diagonal sigma=2 weight
    w2: np.ndarray
    # per-cell Gauss tables for the sigma < 2 functional (None when sigma == 2)
    hs_weights: np.ndarray | None = None
    hs_t: np.ndarray | None = None
    p_crit: float = field(default=2.0)

    @property
    def n_nodes(self) -> int:
        return len(self.grid.nodes)

    @property
    def dof(self) -> slice:
        # Dirichlet drops the boundary node; the reflected (full-manifold)
        # condition is natural and keeps every node.
        return slice(0, self.n_nodes - 1) if self.grid.bc == "dirichlet" else slice(0, self.n_nodes)

    def zero_profile(self) -> np.ndarray:
        return np.zeros(self.n_nodes)

    def check_profile(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if u.shape != (self.n_nodes,):
            raise DomainError(f"profile must have {self.n_nodes} nodal values")
        if self.grid.bc == "dirichlet" and u[-1] != 0.0:
            raise DomainError("Dirichlet condition forces the last nodal value to 0")
        return u


def _cell_quadrature(grid: RadialGrid):
    x, w = np.polynomial.legendre.leggauss(_GAUSS_ORDER)
    a = grid.nodes[:-1]
    b = grid.nodes[1:]
    half = 0.5 * (b - a)
    rq = 0.5 * (b + a)[:, None] + half[:, None] * x[None, :]
    wq = half[:, None] * w[None, :]
    t = 0.5 * (x + 1.0)
    return rq, wq, t


def assemble_forms(grid: RadialGrid, m: ModelManifold, sigma: float) -> QuadraticForms:
    """Assemble K, Mass, the lumped sigma=2 weight and (for sigma < 2) the
    constraint-functional Gauss tables."""
    s = check_sigma(sigma, closed=True)
    if s <= 0.0:
        raise DomainError("assemble_forms requires sigma in (0, 2]")
    if grid.r_max > m.r_max * (1.0 + 1e-12):
        raise DomainError("grid extends past the manifold domain")
    n = m.N
    om = sphere_area(n - 1)
    rq, wq, t = _cell_quadrature(grid)
    psi_pow = m.warp(rq) ** (n - 1)
    base = om * wq * psi_pow
    h = np.diff(grid.nodes)
    nn = len(grid.nodes)

    # Dirichlet form: per-cell integral of the weight / h^2
    s_cell = base.sum(axis=1)
    kd = np.zeros(nn)
    ke = np.zeros(nn - 1)
    np.add.at(kd, np.arange(nn - 1), s_cell / h**2)
    np.add.at(kd, np.arange(1, nn), s_cell / h**2)
    ke -= s_cell / h**2

    # consistent mass
    phl = 1.0 - t[None, :]
    phr = t[None, :]
    md = np.zeros(nn)
    me = np.zeros(nn - 1)
    np.add.at(md, np.arange(nn - 1), (base * phl**2).sum(axis=1))
    np.add.at(md, np.arange(1, nn), (base * phr**2).sum(axis=1))
    me += (base * phl * phr).sum(axis=1)

    # lumped inverse-square weight: r^{-2} psi^{N-1} = (psi/r)^2 psi^{N-3},
    # written in the right-hand form so it stays finite at r = 0
    w2_weight = om * wq * m.warp_over_r(rq) ** 2 * m.warp(rq) ** (n - 3)
    w2 = np.zeros(nn)
    np.add.at(w2, np.arange(nn - 1), (w2_weight * phl).sum(axis=1))
    np.add.at(w2, np.arange(1, nn), (w2_weight * phr).sum(axis=1))

    forms = QuadraticForms(
        grid=grid, manifold=m, sigma=s, kd=kd, ke=ke, md=md, me=me, w2=w2
    )
    if s < 2.0:
        with np.errstate(divide="ignore"):
            hs_w = base * np.where(rq > 0.0, rq, 1.0) ** (-s)
        forms.hs_weights = np.ascontiguousarray(hs_w)
        forms.hs_t = np.ascontiguousarray(t)
        forms.p_crit = critical_exponent(s, n)
    return forms


def assemble_lumped_weight(grid: RadialGrid, m: ModelManifold, weight_fn) -> np.ndarray:
    """Row-sum lumped diagonal for an arbitrary radial weight function."""
    om = sphere_area(m.N - 1)
    rq, wq, t = _cell_quadrature(grid)
    vals = om * wq * m.warp(rq) ** (m.N - 1) * weight_fn(rq)
    nn = len(grid.nodes)
    out = np.zeros(nn)
    np.add.at(out, np.arange(nn - 1), (vals * (1.0 - t[None, :])).sum(axis=1))
    np.add.at(out, np.arange(1, nn), (vals * t[None, :]).sum(axis=1))
    return out


def tri_quadform(d: np.ndarray, e: np.ndarray, u: np.ndarray) -> float:
    return float(np.dot(d, u * u) + 2.0 * np.dot(e, u[:-1] * u[1:]))


def tri_matvec(d: np.ndarray, e: np.ndarray, u: np.ndarray) -> np.ndarray:
    out = d * u
    out[:-1] += e * u[1:]
    out[1:] += e * u[:-1]
    return out


def hs_functional(forms: QuadraticForms, u: np.ndarray) -> float:
    """Constraint integral int r^{-sigma} |u|^{p_crit} dv for sigma < 2."""
    if forms.hs_weights is None:
        raise DomainError("forms were assembled with sigma = 2; no constraint functional")
    u = np.asarray(u, dtype=float)
    return _kernels.power_moment(u, forms.hs_weights, forms.hs_t, forms.p_crit)


def hs_gradient(forms: QuadraticForms, u: np.ndarray) -> tuple[float, np.ndarray]:
    """Value and first variation (nodal gradient) of the constraint integral."""
    if forms.hs_weights is None:
        raise DomainError("forms were assembled with sigma = 2; no constraint functional")
    u = np.asarray(u, dtype=float)
    return _kernels.power_moment_grad(u, forms.hs_weights, forms.hs_t, forms.p_crit)


def evaluate_quotient(
    forms: QuadraticForms, u: np.ndarray, lam: float, sigma: float | None = None
) -> float:
    """Rayleigh quotient of a nodal profile; an upper bound for the discrete
    minimum on the same grid."""
    u = forms.check_profile(u)
    if not np.any(u):
        raise DomainError("quotient undefined for the zero profile")
    s = forms.sigma if sigma is None else check_sigma(sigma, closed=True)
    num = tri_quadform(forms.kd, forms.ke, u) - lam * tri_quadform(forms.md, forms.me, u)
    if s == 2.0:
        den = float(np.dot(forms.w2, u * u))
    else:
        if s != forms.sigma:
            raise DomainError("sigma < 2 evaluation requires forms assembled at that sigma")
        den = hs_functional(forms, u) ** (2.0 / forms.p_crit)
    if den <= 0.0:
        raise DomainError("denominator vanished")
    return num / den
