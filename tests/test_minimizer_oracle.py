"""``minimizer._descend`` must return the same bits as the step loop below,
which forms the rounding bound of the rise test on every step, solves with
the element-by-element reference loops (the preconditioner's LDL^T solve
and dgtsv for the KKT system), evaluates F and grad F with ``abs`` and
``copysign`` at every point and at both trial points of a step, and forms
the Hessian weights g/v from a fresh evaluation.  It is the oracle, and it
imports none of the step code it checks: the minimizer forms the bound
only when Q rises, solves with the factor's bound ``dpttrs`` and the bound
``dgtsv`` calls, takes the sign-free |u|^p path on profiles with no sign
bit set, forms grad F at G(u) and at a candidate only when it keeps it,
and forms the candidate in buffers, and none of that may move a bit of any
result or kernel count.  The oracle's reference solve and general |u|^p
gradient are tallied as the kernel calls they stand in for."""

import math

import numpy as np
import pytest
from test_kernels import _gtsv_ref, _ldl_solve_py, _power_moment_grad_general, kernel_calls

from hardylab import _kernels, minimizer
from hardylab.errors import DomainError
from hardylab.forms import assemble_forms, build_grid, evaluate_quotient, hs_gradient, tri_matvec
from hardylab.manifold import euclidean_ball, unit_sphere
from hardylab.minimizer import MinimizationResult, _project, _rounding, minimize_quotient


def _project_grad(forms, u):
    """u rescaled onto F = 1 and grad F there, from one evaluation of F and
    grad F at u: F(cu) = c^p F(u) and grad F(cu) = c^{p-1} grad F(u); with
    h = F(u) and c."""
    h, grad = hs_gradient(forms, u)
    if h <= 0.0:
        raise DomainError("cannot project the zero profile onto the constraint")
    c = h ** (-1.0 / forms.p_crit)
    return c * u, grad / (h * c), h, c


def _hessian(forms, u):
    """The tridiagonal (d, e) of sum (g/v) [1 - t; t][1 - t; t]^T at u,
    g = w sign(v) |v|^{p-1} at the points v, 0 where v = 0."""
    t, w, p = forms.hs_t, forms.hs_weights, forms.p_crit
    basis = np.array([1.0 - t, t])
    ends = np.column_stack([u[:-1], u[1:]])
    v = ends @ basis
    g = w * np.copysign(np.abs(v) ** (p - 1.0), v)
    weight = np.zeros_like(g)
    np.divide(g, v, out=weight, where=v != 0.0)
    cells = weight @ np.column_stack([basis[0] * basis[0], basis[0] * basis[1], basis[1] * basis[1]])
    d = np.zeros(u.shape[0])
    d[:-1] = cells[:, 0]
    d[1:] += cells[:, 2]
    return d, cells[:, 1]


def _energy(a, u):
    """Au and q = u'Au."""
    au = tri_matvec(a[0], a[1], u)
    return au, float(np.dot(u, au))


def _newton(forms, a, y, v, h, c, q, grad):
    """The Newton candidate v - z1 + t z2 on every node (the Dirichlet node
    0), B [z1 z2] = [r, grad F] with B = A - q (p - 1) H(v) on the free
    nodes, v = c y on F = 1 and H(v) = H(y) / (h c^2); None without a
    candidate."""
    n = forms.dof.stop
    p = forms.p_crit
    hd, he = _hessian(forms, y)
    coef = q * (p - 1.0) / (h * c * c)
    d = a[0][:n] - coef * hd[:n]
    e = a[1][: n - 1] - coef * he[: n - 1]
    r = (tri_matvec(a[0], a[1], v) - (q / p) * grad)[:n]
    z, info = _gtsv_ref(d, e, e, np.array([r, grad[:n]]))
    if info:
        return None
    den = float(np.dot(grad[:n], z[1]))
    if den == 0.0:
        return None
    x = np.zeros_like(v)
    x[:n] = v[:n] - z[0] + z[1] * (float(np.dot(grad[:n], z[0])) / den)
    return x


def _descend_oracle(forms, lam, a, abs_a, factor, power, work, u0, tag, max_iters):
    sl = forms.dof
    u, grad, _, _ = _project_grad(forms, forms.check_profile(np.asarray(u0, dtype=float).copy()))
    with np.errstate(over="ignore"):
        au, q = _energy(a, u)
        if not math.isfinite(q):
            raise DomainError(f"the energy of start {tag} leaves the double range at lambda = {float(lam)!r}")
        best_q, best_err, best_u = math.inf, 0.0, u
        gnorm = math.inf
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
            if gnorm <= minimizer._GRAD_TOL:
                break
            y = u.copy()
            y[sl] -= s
            u, grad, h, c = _project_grad(forms, y)
            au, q = _energy(a, u)
            x = _newton(forms, a, y, u, h, c, q, grad)
            if x is not None and np.any(x):
                x, x_grad, _, _ = _project_grad(forms, x)
                ax, qx = _energy(a, x)
                if qx <= q:
                    u, au, q, grad = x, ax, qx, x_grad

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
        converged=gnorm <= minimizer._GRAD_TOL,
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
    # the bounds are formed only where Q rises: on none of these runs, which
    # converge before Q reaches its rounding floor
    assert rises == []


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


def _past_convergence(monkeypatch, case, max_iters):
    """The case run with a zero gradient tolerance, so each start steps on
    at the rounding floor of Q, where Q rises by rounding, until its
    budget; with the rise bounds it forms, counted."""
    make, lam = CASES[case]
    forms = make()
    rises = []
    monkeypatch.setattr(minimizer, "_GRAD_TOL", 0.0)
    with monkeypatch.context() as m:
        m.setattr(minimizer, "_rounding", lambda abs_a, u: rises.append(1) or _rounding(abs_a, u))
        with kernel_calls() as calls:
            res = minimize_quotient(forms, lam, max_iters=max_iters)
    return forms, lam, res, calls, rises


@pytest.mark.parametrize("case", ["S4-32", "S6-32-sigma-0.5", "S4-64-shifted"])
def test_oracle_past_convergence_where_q_rises_by_rounding(case, monkeypatch):
    # Q rises within its rounding bounds on some steps at the floor, so the
    # bounds are formed there, two per rise test, and no start stops on a
    # rise; the oracle, which forms them on every step, agrees bit for bit
    forms, lam, got, got_calls, rises = _past_convergence(monkeypatch, case, 30)
    assert [s["stop"] for s in got.starts] == ["max_iters"] * 4
    assert rises and len(rises) % 2 == 0
    monkeypatch.setattr(minimizer, "_descend", _descend_oracle)
    monkeypatch.setattr(_kernels, "power_moment_grad", _power_moment_grad_counted)
    with kernel_calls() as want_calls:
        want = minimize_quotient(forms, lam, max_iters=30)
    assert _bits(got, got_calls) == _bits(want, want_calls)


def test_a_rise_past_a_zero_bound_stops_its_start(monkeypatch):
    # with the rounding bound read as 0, the first step at the floor of Q on
    # which Q rises ends each start of S^6 (sigma = 0.5) with stop "rise"
    monkeypatch.setattr(minimizer, "_rounding", lambda abs_a, u: 0.0)
    monkeypatch.setattr(minimizer, "_GRAD_TOL", 0.0)
    res = minimize_quotient(_sphere(6, 0.5, 32), -0.5, max_iters=200)
    assert [s["stop"] for s in res.starts] == ["rise"] * 4
    assert all(s["iterations"] < 20 for s in res.starts)
