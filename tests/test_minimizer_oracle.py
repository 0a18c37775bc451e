"""``minimizer._descend`` must return the same bits as the step loop below,
which forms the rounding bound of the rise test on every step, solves with
the element-by-element reference loop, evaluates F and grad F with ``abs``
and ``copysign`` at every point and at both trial points of a step, and
stacks the mixing history from lists on every step.  It is the oracle, and
it imports none of the step code it checks: the minimizer forms the bound
only when Q rises, solves with the factor's bound ``dpttrs`` call, takes
the sign-free |u|^p path on profiles with no sign bit set, forms grad F
only for the iterate it keeps and keeps its history stacked, and none of
that may move a bit of any result or kernel count.  The oracle's reference
solve and general |u|^p gradient are tallied as the kernel calls they
stand in for."""

import math

import numpy as np
import pytest
from test_kernels import _ldl_solve_py, _power_moment_grad_general, kernel_calls

from hardylab import _kernels, minimizer
from hardylab.errors import DomainError
from hardylab.forms import assemble_forms, build_grid, evaluate_quotient, hs_gradient, tri_matvec
from hardylab.manifold import euclidean_ball, unit_sphere
from hardylab.minimizer import (
    _DEPTH,
    _GRAD_TOL,
    MinimizationResult,
    _project,
    _rounding,
    minimize_quotient,
)


def _project_grad(forms, u):
    """u rescaled onto F = 1 and grad F there, from one evaluation of F and
    grad F at u: F(cu) = c^p F(u) and grad F(cu) = c^{p-1} grad F(u)."""
    h, grad = hs_gradient(forms, u)
    if h <= 0.0:
        raise DomainError("cannot project the zero profile onto the constraint")
    c = h ** (-1.0 / forms.p_crit)
    return c * u, grad / (h * c)


def _energy(a, u):
    """Au and q = u'Au."""
    au = tri_matvec(a[0], a[1], u)
    return au, float(np.dot(u, au))


def _mixed(g, f, d_u, d_f):
    """|g - (dU + dF) gamma| from the lists of differences, stacked anew on
    every call; zero when the differences dF are linearly dependent."""
    df = np.array(d_f)
    try:
        gamma = np.linalg.solve(df @ df.T, df @ f)
    except np.linalg.LinAlgError:
        return 0.0
    return np.abs(g - gamma @ (np.array(d_u) + df))


def _descend_oracle(forms, lam, a, abs_a, factor, power, work, u0, tag, max_iters):
    sl = forms.dof
    u, grad = _project_grad(forms, forms.check_profile(np.asarray(u0, dtype=float).copy()))
    with np.errstate(over="ignore"):
        au, q = _energy(a, u)
        if not math.isfinite(q):
            raise DomainError(f"the energy of start {tag} leaves the double range at lambda = {float(lam)!r}")
        best_q, best_err, best_u = math.inf, 0.0, u
        gnorm = math.inf
        prev = None
        d_u, d_f = [], []
        iters = 0
        for iters in range(1, max_iters + 1):
            err = _rounding(abs_a, u)
            if q > best_q + best_err + err:
                break
            if q < best_q:
                best_q, best_err, best_u = q, err, u
            r = (au - (q / forms.p_crit) * grad)[sl]
            s = _ldl_solve_py(factor.diag, factor.low, r)
            _kernels.COUNTS["solves"] += 1
            gnorm = math.sqrt(max(float(np.dot(r, s)), 0.0)) / (1.0 + abs(q))
            if gnorm <= _GRAD_TOL:
                break
            v = u.copy()
            v[sl] -= s
            mix = prev is not None
            v, v_grad = _project_grad(forms, v)
            f = (v - u)[sl]
            if mix:
                d_u.append(u[sl] - prev[0])
                d_f.append(f - prev[1])
                del d_u[:-_DEPTH], d_f[:-_DEPTH]
            prev = (u[sl], f) if _DEPTH else None
            u, grad = v, v_grad
            au, q = _energy(a, u)
            if mix:
                x = np.zeros_like(u)
                x[sl] = _mixed(u[sl], f, d_u, d_f)
                if np.any(x):
                    x, x_grad = _project_grad(forms, x)
                    ax, qx = _energy(a, x)
                    if qx <= q:
                        u, au, q, grad = x, ax, qx, x_grad
                        continue
                d_u.clear()
                d_f.clear()
                prev = None

    u = best_u
    if np.any(u < 0.0):
        u = _project(forms, np.abs(u))
    return MinimizationResult(
        mu_upper=evaluate_quotient(forms, u, lam),
        profile=u,
        iterations=iters,
        grad_norm=gnorm,
        init_tag=tag,
        concentration=math.nan,
        converged=gnorm <= _GRAD_TOL,
    )


def _power_moment_grad_counted(u, w, t, p):
    _kernels.COUNTS["evaluations"] += 1
    return _power_moment_grad_general(u, w, t, p)


def _sphere(N, sigma, M):
    return assemble_forms(build_grid(math.pi, M, 2.0, "reflected"), unit_sphere(N), sigma)


CASES = {
    "flat-ball-256": (lambda: assemble_forms(build_grid(1.0, 256, 2.0, "dirichlet"), euclidean_ball(3, 1.0), 1.0), 0.0),
    "S4-32": (lambda: _sphere(4, 1.0, 32), -1.0),
    "S4-64": (lambda: _sphere(4, 1.0, 64), -1.0),
    "S5-32-sigma-0.5": (lambda: _sphere(5, 0.5, 32), -0.5),
    "S6-32-sigma-0.5": (lambda: _sphere(6, 0.5, 32), -0.5),
    "S4-64-shifted": (lambda: _sphere(4, 1.0, 64), 0.5),
    "S3-64-shifted": (lambda: _sphere(3, 1.0, 64), 1.0),
}
# the cases on which Q rises, by rounding, on one step of one start
RISES = {"S4-64", "S5-32-sigma-0.5", "S6-32-sigma-0.5", "S3-64-shifted"}
FIELDS = ("mu_upper", "iterations", "iterations_total", "grad_norm", "converged")


def _bits(res, calls):
    values = [np.float64(getattr(res, k)).tobytes() for k in FIELDS]
    return values, calls, res.profile.tobytes(), [(np.float64(mu).tobytes(), u.tobytes()) for mu, u in res.finals]


@pytest.mark.parametrize("case", list(CASES))
def test_step_matches_oracle_bit_for_bit(case, monkeypatch):
    make, lam = CASES[case]
    forms = make()
    rises = []
    monkeypatch.setattr(minimizer, "_rounding", lambda abs_a, u: rises.append(1) or _rounding(abs_a, u))
    with kernel_calls() as got_calls:
        got = minimize_quotient(forms, lam)
    with monkeypatch.context() as m, kernel_calls() as want_calls:
        m.setattr(minimizer, "_descend", _descend_oracle)
        m.setattr(_kernels, "power_moment_grad", _power_moment_grad_counted)
        want = minimize_quotient(forms, lam)
    assert _bits(got, got_calls) == _bits(want, want_calls)
    assert got.converged and [s["stop"] for s in got.starts] == ["converged"] * 4
    # the bounds are formed only where Q rises, two per rise test
    assert len(rises) == (2 if case in RISES else 0)


def test_stop_reasons_and_oracle_at_a_small_budget(monkeypatch):
    # three steps stop every start on its budget; the oracle agrees there too
    forms = _sphere(4, 1.0, 32)
    with kernel_calls() as got_calls:
        got = minimize_quotient(forms, -1.0, max_iters=3)
    assert got.starts == [
        {"init": tag, "iterations": 3, "stop": "max_iters"}
        for tag in ("constant", "bubble(2)", "bubble(8)", "bubble(32)")
    ]
    assert got.stop == "max_iters" and not got.converged
    monkeypatch.setattr(minimizer, "_descend", _descend_oracle)
    monkeypatch.setattr(_kernels, "power_moment_grad", _power_moment_grad_counted)
    with kernel_calls() as want_calls:
        want = minimize_quotient(forms, -1.0, max_iters=3)
    assert _bits(got, got_calls) == _bits(want, want_calls)


def test_a_rise_past_a_zero_bound_stops_its_start(monkeypatch):
    # with the rounding bound read as 0, the one step of S^6 (sigma = 0.5)
    # on which Q rises ends the bubble(2) start with stop "rise"
    monkeypatch.setattr(minimizer, "_rounding", lambda abs_a, u: 0.0)
    res = minimize_quotient(_sphere(6, 0.5, 32), -0.5)
    assert [s["stop"] for s in res.starts] == ["converged", "rise", "converged", "converged"]
