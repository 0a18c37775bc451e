import dataclasses
import math

import numpy as np
import pytest

from hardylab.constants import hardy_constant
from hardylab.eigensolver import smallest_generalized_eigen
from hardylab.errors import DomainError
from hardylab.forms import assemble_forms, assemble_lumped_weight, build_grid
from hardylab.hardy_refined import (
    build_log_grid,
    curved_operator_residual,
    dominant_term_sign,
    flat_operator_residual,
    h1_norm_scan,
    improved_hardy_eigen,
    log_bubble_value,
)
from hardylab.manifold import euclidean_ball, unit_sphere


def test_log_bubble_frozen_values():
    assert log_bubble_value(math.exp(-1.0), 1.0, 3) == pytest.approx(math.exp(0.5), rel=1e-14)
    assert log_bubble_value(0.25, 2.0, 4) == pytest.approx(4.0 * math.log(4.0) ** 2, rel=1e-14)
    # a = 0 is the unperturbed near-extremal power
    for r in (0.1, 0.5, 0.9):
        assert log_bubble_value(r, 0.0, 5) == pytest.approx(r ** (-1.5), rel=1e-14)


def test_log_bubble_domain():
    with pytest.raises(DomainError):
        log_bubble_value(1.0, 0.5, 3)
    with pytest.raises(DomainError):
        log_bubble_value(0.0, 0.5, 3)


def test_build_log_grid():
    g = build_log_grid(1e-4, 0.5, 64)
    assert g[0] == pytest.approx(1e-4) and g[-1] == pytest.approx(0.5)
    ratios = g[1:] / g[:-1]
    assert np.allclose(ratios, ratios[0], rtol=1e-12)  # uniform in log r
    with pytest.raises(DomainError):
        build_log_grid(0.5, 0.1, 64)


@pytest.mark.parametrize("a", [-1.0, -0.75, -0.5, 0.5])
@pytest.mark.parametrize("N", [3, 4])
def test_flat_residual_second_order(a, N):
    res = []
    for M in (512, 1024, 2048):
        res.append(flat_operator_residual(a, 0.0, N, build_log_grid(1e-4, 0.5, M)))
    rates = [math.log2(res[i] / res[i + 1]) for i in range(2)]
    assert min(rates) >= 1.9


def test_flat_residual_lambda_independent():
    g = build_log_grid(1e-4, 0.5, 512)
    assert flat_operator_residual(-1.0, 0.0, 3, g) == flat_operator_residual(-1.0, -2.5, 3, g)


def test_structural_case_a0():
    # a = 0 solves the critical equation exactly; the residual is pure
    # discretization error
    res = []
    for M in (512, 1024):
        res.append(flat_operator_residual(0.0, 0.0, 3, build_log_grid(1e-4, 0.5, M)))
    assert res[0] > 0
    assert math.log2(res[0] / res[1]) >= 1.9


def test_dominant_term_signs():
    # sub-solution side on both negative branches, super-solution side only
    # for a in (0, 1); the log-corrected coefficient peaks at 1/4
    assert dominant_term_sign(-0.75) == -1  # a in (-1, -1/2)
    assert dominant_term_sign(-1.5) == -1  # a <= -1
    assert dominant_term_sign(0.5) == 1
    assert -0.5 * (0.5 - 1.0) == 0.25


@pytest.mark.parametrize("N", [3, 4])
def test_improved_hardy_floor(N):
    res = improved_hardy_eigen(N, 0.1, M=512)
    assert res.value >= 0.99
    assert res.within_lemma_scope


def test_improved_hardy_refinement_nonincreasing():
    vals = [improved_hardy_eigen(3, 0.1, M=M).value for M in (512, 1024)]
    assert vals[0] >= vals[1] >= 0.99


def _fake_forms_eigen(N, r0, M, gamma=3.0):
    """The improved-inequality eigenvalue as the sigma = 2 eigensolve of
    stand-in forms: K - cap*W2 as K, a zero Mass and W_log as W2."""
    ball = euclidean_ball(N, r0)
    grid = build_grid(r0, M, gamma, "dirichlet")
    forms = assemble_forms(grid, ball, 2.0)
    with np.errstate(divide="ignore"):
        wlog = assemble_lumped_weight(grid, ball, lambda r: 1.0 / np.square(r * np.log(r)))
    pencil = dataclasses.replace(
        forms,
        kd=forms.kd - hardy_constant(N) * forms.w2,
        md=np.zeros_like(forms.md),
        me=np.zeros_like(forms.me),
        w2=wlog,
    )
    return smallest_generalized_eigen(pencil, 0.0).mu


@pytest.mark.parametrize("r0", [0.05, 0.1, 0.5])
@pytest.mark.parametrize("N", [3, 4, 5])
def test_improved_hardy_eigen_is_the_fake_forms_eigensolve(N, r0):
    # the pencil (K - cap*W2, W_log) goes straight to the eigensolve's core
    # with the same bits
    for M in (256, 1024):
        assert improved_hardy_eigen(N, r0, M=M).value == _fake_forms_eigen(N, r0, M)


@pytest.mark.parametrize("M", [256, 1024])
def test_log_weight_first_cell_against_mpmath(M):
    # W_log's cell 0 at N = 3 (r0 = 0.1, gamma = 3): |S^2| int_0^{r_1} hat /
    # log^2 r dr, not smooth at r = 0, against 30 digits; the weight is cut
    # to cell 0, so its two entries are cell 0's alone.  Within 1e-13
    # relative (7.5e-15 measured); one 8-point panel over the cell read
    # 9.1e-4 and 8.4e-4 high on the left entry
    mp = pytest.importorskip("mpmath")
    ball, grid = euclidean_ball(3, 0.1), build_grid(0.1, M, 3.0, "dirichlet")
    r1 = grid.nodes[1]

    def weight(r):
        inner = r < r1
        out = np.zeros_like(r)
        out[inner] = 1.0 / np.square(r[inner] * np.log(r[inner]))
        return out

    wlog = assemble_lumped_weight(grid, ball, weight)
    with mp.workdps(30):
        b = mp.mpf(r1)
        left, right = (
            4 * mp.pi * mp.quad(lambda r, hat=hat: hat(r) / mp.log(r) ** 2, [0, b / 2, b])
            for hat in (lambda r: 1 - r / b, lambda r: r / b)
        )
    assert not np.any(wlog[2:])
    assert wlog[0] == pytest.approx(float(left), rel=1e-13, abs=0.0)
    assert wlog[1] == pytest.approx(float(right), rel=1e-13, abs=0.0)


def test_improved_hardy_scope_flag():
    res = improved_hardy_eigen(3, 0.4, M=512)
    assert not res.within_lemma_scope
    with pytest.raises(DomainError):
        improved_hardy_eigen(3, 1.2)


def test_curved_residual_bounded_not_convergent():
    # on the sphere the identity carries a genuine curvature remainder: once
    # the grid resolves past the discretization error the weighted residual
    # plateaus (here ~0.64) instead of vanishing; the flat manifold through
    # the same code path keeps decaying at second order
    vals = [
        curved_operator_residual(unit_sphere(3), -1.0, 0.0, build_log_grid(0.05, 0.5, M))
        for M in (512, 1024, 2048)
    ]
    assert all(v < 10.0 for v in vals)
    assert vals[-1] > 0.9 * vals[0]  # bounded plateau, no decay
    flat = [
        curved_operator_residual(euclidean_ball(3, 1.0), -1.0, 0.0, build_log_grid(0.05, 0.5, M))
        for M in (512, 1024)
    ]
    assert math.log2(flat[0] / flat[1]) >= 1.9


def test_h1_scan_distinguishes_membership():
    # gradient square-integrability boundary at a = -1/2: increments decay
    # below, stay roughly constant above
    below = h1_norm_scan(-0.75, 3, levels=4)
    above = h1_norm_scan(-0.25, 3, levels=4)
    inc_below = np.diff(below)
    inc_above = np.diff(above)
    assert inc_below[-1] < 0.5 * inc_below[0]  # decelerating: convergent
    assert inc_above[-1] > 0.5 * inc_above[0]  # steady growth: divergent
