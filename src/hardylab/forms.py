"""Graded radial grids and discrete forms for the radial Rayleigh quotient.

Piecewise-linear elements on a power-graded grid r_i = r_max (i/M)^gamma.
The Dirichlet form K and the plain mass form are assembled consistently
(symmetric tridiagonal, per-cell 8-point Gauss-Legendre in the smooth
weight psi^{N-1}, which reaches rounding there); the singular sigma=2
weight is a row-sum lumped diagonal, which keeps the eigenvalue pencil
tridiagonal-vs-diagonal and is exact on constants.  Its integrand
psi^{N-1} / r^2 is formed from the warp values the other forms use
(Gauss points lie inside their cells, so r > 0).  Each (cells, 8) table
is reduced by one product with the hat products [1, (1-t)^2, t^2, t(1-t)]
(K, Mass) or the hats [1-t, t] (a lumped weight).  The log weight of
``assemble_lumped_weight`` takes its cell 0 on graded sub-panels.  All
forms carry the full surface factor |S^{N-1}|, so quotient values are
directly comparable to the sharp constants.

The sigma < 2 constraint functional and its first variation are evaluated
from one (cells, 8) weight table through the kernels module (vectorized
NumPy), at the same 8 Legendre points t_j of every cell.  On cell
0 = [0, r_1] the weight r^{-sigma} psi^{N-1} = r^alpha (psi/r)^{N-1},
alpha = N - 1 - sigma, is not smooth at r = 0 unless alpha is an integer,
and Gauss-Legendre converges there only algebraically: 16 Legendre points
over-estimate F by 1.3e-5 relative on the flat ball N = 3, sigma = 1.9,
M = 256, which puts the quotient below its own profile's.  Cell 0's row
therefore takes the interpolatory weights omega_j = int_0^1 t^alpha
l_j(t) dt at those points (``_first_cell``), exact for t^alpha times any
polynomial of degree < 8, so the smooth rest (psi/r)^{N-1} |u|^p is
integrated to rounding: F within 3e-11 relative of a 30-digit reference
there.
``gauss_panels`` is the package's one composite Gauss-Legendre rule; the
bubble moments, the expansion family and the constant-profile bound use it
too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

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
    "gauss_panels",
    "hs_functional",
    "hs_gradient",
    "evaluate_quotient",
    "tri_quadform",
    "tri_matvec",
]

_BCS = ("dirichlet", "reflected")
_GAUSS_ORDER = 8  # Gauss points per cell, for every table assembled here
_GRADED_LEVELS = 40  # halvings of cell 0 in ``assemble_lumped_weight``


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
    if not (8 <= M < np.inf and int(M) == M):  # NaN fails too
        raise DomainError(f"M must be an integer >= 8, got {M!r}")
    gamma = float(gamma)
    if not (1.0 <= gamma <= 4.0):
        raise DomainError(f"grading exponent must lie in [1, 4], got {gamma!r}")
    if bc not in _BCS:
        raise DomainError(f"bc must be one of {_BCS}, got {bc!r}")
    if not 0.0 < r_max < np.inf:
        raise DomainError(f"r_max must be positive and finite, got {r_max!r}")
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

    def free(self, d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The tridiagonal (d, e) on every node restricted to the free
        nodes, which are a prefix: (d[dof], e[:n_free - 1])."""
        d = d[self.dof]
        return d, e[: d.shape[0] - 1]

    def zero_profile(self) -> np.ndarray:
        return np.zeros(self.n_nodes)

    def check_profile(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if u.shape != (self.n_nodes,):
            raise DomainError(f"profile must have {self.n_nodes} nodal values")
        if self.grid.bc == "dirichlet" and u[-1] != 0.0:
            raise DomainError("Dirichlet condition forces the last nodal value to 0")
        return u


@lru_cache(maxsize=None)
def _legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


def _cell_points(order: int) -> np.ndarray:
    """The ``order`` Legendre points mapped to [0, 1]: where every cell's
    table is evaluated."""
    return 0.5 * (_legendre(order)[0] + 1.0)


@lru_cache(maxsize=None)
def _first_cell(alpha: float, order: int) -> np.ndarray:
    """omega_j = int_0^1 t^alpha l_j(t) dt for the Lagrange polynomials l_j
    of the ``order`` Legendre points t_j on [0, 1]: the interpolatory rule
    at those points for the weight t^alpha.  The Gauss rule (weights w_j/2)
    is exact through degree 2 * order - 1, so the shifted Legendre
    polynomials P_k(2t - 1), k < order, are orthogonal on its points and
    omega_j = (w_j/2) sum_k (2k + 1) P_k(2t_j - 1) m_k, with the moments
    m_k = int_0^1 t^alpha P_k(2t - 1) dt
        = prod_{i<k} (alpha - i) / prod_{i=1}^{k+1} (alpha + i)."""
    x, w = _legendre(order)
    k = np.arange(1.0, order)
    m = np.cumprod(np.concatenate(([1.0 / (alpha + 1.0)], (alpha - k + 1.0) / (alpha + k + 1.0))))
    return 0.5 * w * (np.polynomial.legendre.legvander(x, order - 1) @ ((2.0 * np.arange(order) + 1.0) * m))


def gauss_panels(edges: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on every panel [edges[i], edges[i+1]],
    as two (panels, order) arrays."""
    x, w = _legendre(order)
    a, b = edges[:-1], edges[1:]
    half = 0.5 * (b - a)
    return 0.5 * (b + a)[:, None] + half[:, None] * x, half[:, None] * w


def _cell_quadrature(grid: RadialGrid):
    rq, wq = gauss_panels(grid.nodes, _GAUSS_ORDER)
    return rq, wq, _cell_points(_GAUSS_ORDER)


@lru_cache(maxsize=None)
def _hat_columns(order: int) -> tuple[np.ndarray, np.ndarray]:
    """The hat products [1, (1-t)^2, t^2, t(1-t)] and the hats [1-t, t] at the cell points, as columns."""
    t = _cell_points(order)
    return np.column_stack([np.ones(order), (1.0 - t) ** 2, t**2, t * (1.0 - t)]), np.column_stack([1.0 - t, t])


def _to_nodes(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Add each cell's contribution to its left and its right node."""
    out = np.zeros(len(left) + 1)
    out[:-1] += left
    out[1:] += right
    return out


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
    psi = m.warp(rq)
    base = om * wq * psi ** (n - 1)

    mom = base @ _hat_columns(_GAUSS_ORDER)[0]
    # Dirichlet form: per-cell integral of the weight / h^2
    k_cell = mom[:, 0] / np.diff(grid.nodes) ** 2
    kd = _to_nodes(k_cell, k_cell)
    ke = -k_cell

    # consistent mass
    md = _to_nodes(mom[:, 1], mom[:, 2])
    me = mom[:, 3]

    # lumped inverse-square weight r^{-2} psi^{N-1}, from the warp already
    # evaluated: Gauss points lie inside their cells, so r > 0
    w2 = _to_nodes(*(base / (rq * rq) @ _hat_columns(_GAUSS_ORDER)[1]).T)

    forms = QuadraticForms(
        grid=grid, manifold=m, sigma=s, kd=kd, ke=ke, md=md, me=me, w2=w2
    )
    if s < 2.0:
        hs_w = base * rq ** (-s)  # Gauss points lie inside their cells, so r > 0
        # cell 0: |S^{N-1}| r_1^{alpha+1} omega_j (psi/r)^{N-1}, exact in t^alpha
        alpha, r1 = n - 1 - s, grid.nodes[1]
        hs_w[0] = om * r1 ** (alpha + 1.0) * _first_cell(alpha, _GAUSS_ORDER) * (psi[0] / rq[0]) ** (n - 1)
        forms.hs_weights = hs_w
        forms.hs_t = t
        forms.p_crit = critical_exponent(s, n)
    return forms


def assemble_lumped_weight(grid: RadialGrid, m: ModelManifold, weight_fn) -> np.ndarray:
    """Row-sum lumped diagonal for a radial weight function.  Cell 0 is
    integrated on the graded sub-panels [0, r_1 2^-40] and [r_1 2^-k,
    r_1 2^(1-k)], k = 40..1, 8 points each: a weight singular at r = 0 can
    leave an integrand not smooth there (1/log^2 r for r^-2 (log r)^-2 at
    N = 3, which one 8-point panel reads 9e-4 relative high)."""
    om, n = sphere_area(m.N - 1), m.N
    rq, wq, _ = _cell_quadrature(grid)
    mom = om * wq * m.warp(rq) ** (n - 1) * weight_fn(rq) @ _hat_columns(_GAUSS_ORDER)[1]
    r1 = grid.nodes[1]
    rs, ws = gauss_panels(r1 * np.concatenate(([0.0], 2.0 ** -np.arange(_GRADED_LEVELS, -1.0, -1.0))), _GAUSS_ORDER)
    vals = om * ws * m.warp(rs) ** (n - 1) * weight_fn(rs)
    t = rs / r1
    mom[0] = np.sum(vals * (1.0 - t)), np.sum(vals * t)
    return _to_nodes(*mom.T)


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
