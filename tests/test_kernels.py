"""The kernels must return the same bits as plain reference loops that index
the arrays element by element, on both backends: the one resolved at import
(LAPACK ``dpttrf``/``dpttrs`` where numpy bundles them) and the Python-float
stand-ins with LAPACK's operations that run when the LAPACK handles are
missing.  The definiteness test is checked against dense generalized
eigenvalues and against the inertia count.  A factor exists only for a
shift that tests definite; any other is refused with a ``DomainError``.
``COUNTS`` tallies each call served, on both backends.  ``kernel_calls``
measures its change for the other test modules."""

import contextlib
import gc
import glob
import importlib.util
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

from hardylab import _kernels as K
from hardylab.eigensolver import inertia_count
from hardylab.errors import DomainError
from hardylab.forms import assemble_forms, build_grid
from hardylab.manifold import unit_sphere

# ---------------------------------------------------------------------------
# Reference loops (the oracles)
# ---------------------------------------------------------------------------


def _negcount_py(d, e):
    n = d.shape[0]
    count = 0
    piv = d[0]
    if piv == 0.0:
        return -1
    if piv < 0.0:
        count += 1
    for i in range(1, n):
        piv = d[i] - e[i - 1] * e[i - 1] / piv
        if piv == 0.0:
            return -1
        if piv < 0.0:
            count += 1
    return count


def _definite_py(d, e):
    """Whether every pivot is positive; stops at the first that is not."""
    piv = d[0]
    if piv <= 0.0:
        return False
    for i in range(1, d.shape[0]):
        piv = d[i] - e[i - 1] * e[i - 1] / piv
        if piv <= 0.0:
            return False
    return True


def _ldl_factor_py(d, e):
    n = d.shape[0]
    diag = np.empty(n)
    low = np.empty(n - 1)
    diag[0] = d[0]
    for i in range(1, n):
        low[i - 1] = e[i - 1] / diag[i - 1]
        diag[i] = d[i] - low[i - 1] * e[i - 1]
    return diag, low


def _ldl_solve_py(diag, low, b):
    n = diag.shape[0]
    x = b.copy()
    for i in range(1, n):
        x[i] -= low[i - 1] * x[i - 1]
    if n == 1:  # dptts2 scales by the reciprocal
        x[0] *= 1.0 / diag[0]
    else:
        x[n - 1] /= diag[n - 1]
    for i in range(n - 2, -1, -1):
        x[i] = x[i] / diag[i] - low[i] * x[i + 1]
    return x


def _tridiag_solve_py(d, e, b):
    """Thomas solve in one loop."""
    n = d.shape[0]
    diag = np.empty(n)
    low = np.empty(n - 1)
    x = b.copy()
    diag[0] = d[0]
    for i in range(1, n):
        low[i - 1] = e[i - 1] / diag[i - 1]
        diag[i] = d[i] - low[i - 1] * e[i - 1]
    for i in range(1, n):
        x[i] -= low[i - 1] * x[i - 1]
    if n == 1:  # dptts2 scales by the reciprocal
        x[0] *= 1.0 / diag[0]
    else:
        x[n - 1] /= diag[n - 1]
    for i in range(n - 2, -1, -1):
        x[i] = x[i] / diag[i] - low[i] * x[i + 1]
    return x


def _gtsv_ref(d, dl, du, b):
    """Reference dgtsv (Gaussian elimination with partial pivoting, its
    NRHS > 1 loop) indexing numpy copies element by element: the solution
    columns as the rows of a (nrhs, n) array and info, 0 or the row of the
    first exactly zero pivot (then the columns are None)."""
    d, dl, du, b = d.copy(), dl.copy(), du.copy(), b.copy()
    n, nrhs = d.shape[0], b.shape[0]
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            if d[i] == 0.0:
                return None, i + 1
            fact = dl[i] / d[i]
            d[i + 1] = d[i + 1] - fact * du[i]
            for j in range(nrhs):
                b[j, i + 1] = b[j, i + 1] - fact * b[j, i]
            if i < n - 2:
                dl[i] = 0.0
        else:
            fact = d[i] / dl[i]
            d[i] = dl[i]
            temp = d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
            for j in range(nrhs):
                temp = b[j, i]
                b[j, i] = b[j, i + 1]
                b[j, i + 1] = temp - fact * b[j, i + 1]
    if d[n - 1] == 0.0:
        return None, n
    for j in range(nrhs):
        b[j, n - 1] = b[j, n - 1] / d[n - 1]
        if n > 1:
            b[j, n - 2] = (b[j, n - 2] - du[n - 2] * b[j, n - 1]) / d[n - 2]
        for i in range(n - 3, -1, -1):
            b[j, i] = (b[j, i] - du[i] * b[j, i + 1] - dl[i] * b[j, i + 2]) / d[i]
    return b, 0


def _power_hessian_loop_py(u, w, t, p):
    """The tridiagonal (d, e) of sum w |v|^{p-2} [1 - t; t][1 - t; t]^T
    over the points, cell by cell."""
    ncell, nq = w.shape
    d, e = np.zeros(ncell + 1), np.zeros(ncell)
    for c in range(ncell):
        for q in range(nq):
            v = u[c] + (u[c + 1] - u[c]) * t[q]
            if v != 0.0:
                s = w[c, q] * abs(v) ** (p - 2.0)
                d[c] += s * (1.0 - t[q]) ** 2
                e[c] += s * (1.0 - t[q]) * t[q]
                d[c + 1] += s * t[q] ** 2
    return d, e


def _power_moment_loop_py(u, w, t, p):
    ncell, nq = w.shape
    total = 0.0
    for c in range(ncell):
        ul = u[c]
        ur = u[c + 1]
        for q in range(nq):
            v = ul + (ur - ul) * t[q]
            total += w[c, q] * abs(v) ** p
    return total


def _power_moment_grad_loop_py(u, w, t, p, grad):
    ncell, nq = w.shape
    total = 0.0
    for c in range(ncell):
        ul = u[c]
        ur = u[c + 1]
        gl = 0.0
        gr = 0.0
        for q in range(nq):
            v = ul + (ur - ul) * t[q]
            av = abs(v)
            total += w[c, q] * av ** p
            if av > 0.0:
                s = p * av ** (p - 1.0)
                if v < 0.0:
                    s = -s
                s *= w[c, q]
                gl += s * (1.0 - t[q])
                gr += s * t[q]
        grad[c] += gl
        grad[c + 1] += gr
    return total


def _power_moment_grad_general(u, w, t, p):
    """``power_moment_grad`` with ``abs`` and ``copysign`` at every point
    (the kernel before its sign-free path): the same IEEE operations."""
    basis = np.empty((2, t.shape[0]))
    np.subtract(1.0, t, out=basis[0])
    basis[1] = t
    ends = np.empty((u.shape[0] - 1, 2))
    ends[:, 0] = u[:-1]
    ends[:, 1] = u[1:]
    v = ends @ basis
    g = w * np.copysign(np.abs(v) ** (p - 1.0), v)
    ends = g @ basis.T
    ends *= p
    grad = np.empty(u.shape[0])
    grad[:-1] = ends[:, 0]
    grad[-1] = 0.0
    grad[1:] += ends[:, 1]
    return float(np.vdot(g, v)), grad


@contextlib.contextmanager
def kernel_calls():
    """The change of ``COUNTS`` over the block: a dict with its keys, filled
    in when the block ends."""
    calls = {}
    before = dict(K.COUNTS)
    yield calls
    calls.update({k: n - before[k] for k, n in K.COUNTS.items()})


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(11)


def _random_pencils(rng):
    """Indefinite random tridiagonals, sizes 1, 2 and up to 200."""
    for n in [1, 2, 1, 2] + [int(v) for v in rng.integers(3, 200, size=20)]:
        yield rng.standard_normal(n), rng.standard_normal(n - 1) * 0.5


def _graded_pencils():
    """K - lam*Mass - s*W on graded grids: 1/h^2 entries spanning many
    decades, shifts on both sides of the least eigenvalue."""
    for m, r_max, bc, M in [
        (unit_sphere(3), math.pi, "reflected", 256),
        (unit_sphere(5), math.pi, "reflected", 64),
        (unit_sphere(3), 1.0, "dirichlet", 128),
    ]:
        f = assemble_forms(build_grid(r_max, M, 2.0, bc), m, 2.0)
        sl = f.dof
        n = sl.stop
        for lam in (-1.0, 0.0, 0.5):
            for s in (-1.0, 0.2, 0.25, 0.3, 5.0):
                d = f.kd[sl] - lam * f.md[sl] - s * f.w2[sl]
                e = (f.ke - lam * f.me)[: n - 1]
                yield d, e


def _definite_at_zero(d, e):
    """The matrix (d, e) tested alone: the pencil (T, 0) at s = 0."""
    return K.definite_test(d, e, np.zeros(d.shape[0]))(0.0)


def _definite(d, e):
    """Diagonally dominant (so definite) variant with the same off-diagonal."""
    return np.abs(d) + np.concatenate([[0.0], np.abs(e)]) + np.concatenate([np.abs(e), [0.0]]) + 1.0


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


def test_negcount_matches_reference(rng):
    cases = list(_random_pencils(rng)) + list(_graded_pencils())
    counts = set()
    for d, e in cases:
        got = K.negcount(d, e)
        assert type(got) is int
        assert got == _negcount_py(d, e)
        counts.add(got)
    assert len(counts) > 5  # the cases cover definite and indefinite pencils


_ZERO_PIVOT_CASES = [
    (np.array([0.0, 1.0, 1.0]), np.zeros(2)),
    (np.array([1.0, 1.0, 1.0]), np.array([1.0, 0.0])),  # second pivot 1 - 1/1 = 0
    (np.array([0.0]), np.zeros(0)),
    (np.array([2.0, -0.0]), np.zeros(1)),
    (np.array([-1.0, 1.0, 2.0]), np.array([1.0, 2.0])),  # zero pivot after a negative one
    # zero pivot after five negative ones
    (np.array([-1.0, -1.0, -1.0, -1.0, -1.0, 1.0, 2.0]), np.array([0.0, 0.0, 0.0, 0.0, 1.0, 2.0])),
]


def test_negcount_zero_pivot_sentinel():
    for d, e in _ZERO_PIVOT_CASES:
        assert _negcount_py(d, e) == -1
        assert K.negcount(d, e) == -1


def test_definite_matches_dense_generalized_eigenvalues(rng):
    # (T, W) with W positive definite tridiagonal: T - s*W is definite
    # exactly when every eigenvalue of eigh(T, W) lies above s
    outcomes = set()
    for d, e in _random_pencils(rng):
        n = d.shape[0]
        wd = np.abs(rng.standard_normal(n)) + 1.0
        we = 0.45 * rng.uniform(-1.0, 1.0, n - 1)  # |we| < min(wd)/2: W definite
        t = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        w = np.diag(wd) + np.diag(we, 1) + np.diag(we, -1)
        least = float(scipy.linalg.eigh(t, w, eigvals_only=True)[0])
        for s in (least - 1.0, least - 1e-6, least + 1e-6, least + 1.0):
            got = _definite_at_zero(d - s * wd, e - s * we)
            assert type(got) is bool
            assert got == (s < least), (n, s, least)
            outcomes.add(got)
    assert outcomes == {True, False}


def test_definite_reads_zero_pivot_as_not_definite():
    for d, e in _ZERO_PIVOT_CASES:
        assert _definite_at_zero(d, e) is _definite_py(d, e) is False
    assert _definite_at_zero(np.array([1e-300]), np.zeros(0)) is True
    assert _definite_at_zero(np.array([-1e-300]), np.zeros(0)) is False


def test_definite_agrees_with_inertia_count(rng):
    cases = list(_random_pencils(rng)) + list(_graded_pencils())
    outcomes = set()
    for d, e in cases:
        got = _definite_at_zero(d, e)
        assert got == _definite_py(d, e)
        assert (not got) == (inertia_count(d, e, np.ones(d.shape[0]), 0.0) >= 1)
        outcomes.add(got)
    assert outcomes == {True, False}


def _check_definite_test(d, e, w, w_off, shifts):
    """One per-pencil test, called at ``shifts`` in turn, against the count
    and a fresh test of T - s*W, formed by the NumPy expressions, at s = 0."""
    test = K.definite_test(d, e, w, w_off)
    outcomes = []
    for s in shifts:
        sd, se = d - s * w, (e if w_off is None else e - s * w_off)
        got = test(s)
        assert type(got) is bool
        assert got == (K.negcount(sd, se) == 0) == _definite_at_zero(sd, se), (d.shape[0], s)
        outcomes.append(got)
    return outcomes


def test_definite_test_matches_shifted_count(rng):
    outcomes = set()
    for d, e in _random_pencils(rng):  # n = 1 and n = 2 among them
        n = d.shape[0]
        w = np.abs(rng.standard_normal(n)) + 1.0
        for w_off in (None, 0.45 * rng.uniform(-1.0, 1.0, n - 1)):  # diagonal and tridiagonal W
            # one test object at alternating shifts: every call rebuilds both
            # halves of the buffer that dpttrf overwrote
            outcomes.update(_check_definite_test(d, e, w, w_off, (-3.0, 0.5, -3.0, 0.5, 4.0, -3.0)))
    assert outcomes == {True, False}


def test_definite_test_rebuilds_the_off_diagonal():
    # at s = 0 dpttrf overwrites e = 1.9 with the multiplier 0.95; at s = 1
    # the second pivot is 1 - 1.9^2 < 0, while a stale 0.95 would give
    # 1 - 0.95^2 > 0
    d, e, w = np.array([2.0, 2.0]), np.array([1.9]), np.ones(2)
    assert _check_definite_test(d, e, w, None, (0.0, 1.0, 0.0, 1.0)) == [True, False, True, False]
    assert _check_definite_test(d, e, w, np.array([0.1]), (0.0, 1.0, 0.0)) == [True, False, True]


def _first_row_not_positive(d, e):
    """dpttrf's info for (d, e): the 1-based row of the first LDL^T pivot
    that is not positive, or 0."""
    piv = float(d[0])
    for row in range(1, d.shape[0]):
        if piv <= 0.0:
            return row
        piv = float(d[row]) - float(e[row - 1]) / piv * float(e[row - 1])
    return d.shape[0] if piv <= 0.0 else 0


def test_a_test_and_a_factor_set_the_same_info(rng, backend):
    # a test and a factor attempt stop at the same row: info is that row,
    # or 0 when every pivot is positive
    rows = set()
    for d, e in list(_random_pencils(rng)) + list(_graded_pencils()):
        pencil = K.PencilWorkspace(d, e, np.ones(d.shape[0]))
        for s in (-5.0, 0.0, 0.5):
            want = _first_row_not_positive(d - s, e)
            definite = pencil(s)
            assert (pencil._info.value, definite) == (want, want == 0)
            try:
                pencil.factor(s)
            except DomainError:
                pass
            assert pencil._info.value == want
            rows.add(want)
    assert 0 in rows and len(rows) > 5


def test_definite_test_zero_pivots_and_tiny_pencils():
    # an exact zero pivot reads as not definite, from the matrix or the shift
    for d, e in _ZERO_PIVOT_CASES:
        assert _check_definite_test(d, e, np.ones(d.shape[0]), None, (0.0,)) == [False]
    d, e, w = np.array([2.0, 3.0]), np.array([1.0]), np.array([1.0, 2.0])
    assert _check_definite_test(d, e, w, None, (1.0, 0.0, 1.0)) == [False, True, False]  # 1 - 1/1 = 0
    one = np.array([3.0])
    assert _check_definite_test(one, np.zeros(0), np.ones(1), None, (2.0, 3.0, 4.0, 2.0)) == [True, False, False, True]


def test_factor_and_solve_match_reference(rng):
    cases = [(_definite(d, e), e) for d, e in _random_pencils(rng)]
    cases += list(_graded_pencils())  # definite and indefinite
    refused = 0
    for d, e in cases:
        b = rng.standard_normal(d.shape[0])
        if not _definite_py(d, e):  # a pivot that is not positive: no factor
            refused += 1
            for make in (lambda: K.ldl_factor(d, e), lambda: K.tridiag_solve(d, e, b)):
                with pytest.raises(DomainError, match="at s = 0.0"):
                    make()
            continue
        factor = K.ldl_factor(d, e)
        ref_diag, ref_low = _ldl_factor_py(d, e)
        assert np.array_equal(factor.diag, ref_diag) and np.array_equal(factor.low, ref_low)
        ref = _tridiag_solve_py(d, e, b)
        assert np.array_equal(_ldl_solve_py(ref_diag, ref_low, b), ref)
        assert np.array_equal(factor.solve(b), ref)
        assert np.array_equal(factor.solve(b), ref)  # the bound buffer is reused
        assert np.array_equal(K.tridiag_solve(d, e, b), ref)
    assert 0 < refused < len(cases)


def test_factor_and_solve_agree_with_dense_solve(rng):
    for d, e in _random_pencils(rng):
        d = _definite(d, e)
        b = rng.standard_normal(d.shape[0])
        a = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        assert np.allclose(K.tridiag_solve(d, e, b), np.linalg.solve(a, b), rtol=1e-9, atol=1e-9)


def test_one_and_two_row_pencils():
    # n = 1 scales by the reciprocal, as dptts2 does: 5 * (1/3) != 5/3
    d1, e1, b1 = np.array([3.0]), np.zeros(0), np.array([5.0])
    factor = K.ldl_factor(d1, e1)
    assert factor.diag.tolist() == [3.0] and factor.low.shape == (0,)
    assert factor.solve(b1).tolist() == [5.0 * (1.0 / 3.0)] != [5.0 / 3.0]
    assert K.tridiag_solve(d1, e1, b1).tolist() == _tridiag_solve_py(d1, e1, b1).tolist() == [5.0 * (1.0 / 3.0)]
    assert [K.negcount(np.array([v]), e1) for v in (3.0, -3.0, 0.0)] == [0, 1, -1]
    assert [_definite_at_zero(np.array([v]), e1) for v in (3.0, -3.0, 0.0)] == [True, False, False]
    for d in ([3.0, 2.0], [3.0, -2.0], [-3.0, 2.0], [-3.0, -2.0], [0.5, 1.0 / 3.0]):
        d2, e2, b2 = np.array(d), np.array([0.7]), np.array([5.0, -1.0])
        assert K.negcount(d2, e2) == _negcount_py(d2, e2)
        assert _definite_at_zero(d2, e2) == (_negcount_py(d2, e2) == 0)
        if not _definite_at_zero(d2, e2):
            with pytest.raises(DomainError):
                K.ldl_factor(d2, e2)
            continue
        ref_diag, ref_low = _ldl_factor_py(d2, e2)
        factor = K.ldl_factor(d2, e2)
        assert np.array_equal(factor.diag, ref_diag) and np.array_equal(factor.low, ref_low)
        assert np.array_equal(factor.solve(b2), _ldl_solve_py(ref_diag, ref_low, b2))
        assert np.array_equal(K.tridiag_solve(d2, e2, b2), _tridiag_solve_py(d2, e2, b2))


def test_kernel_benchmark_script_imports(monkeypatch):
    # the benchmark script imports the kernels and this file's oracles by
    # name; loading it (without running its timing loop) catches a stale one
    path = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks", "bench_kernels.py")
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src/ and tests/
    spec = importlib.util.spec_from_file_location("bench_kernels", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    assert bench._kernels is K and callable(bench.main)


def test_python_path_matches_reference(rng, python_backend):
    """The tests above, run on the Python-float recurrences (the LAPACK
    handles set to None); the tests themselves run on the backend resolved
    at import."""
    test_negcount_matches_reference(rng)
    test_negcount_zero_pivot_sentinel()
    test_definite_matches_dense_generalized_eigenvalues(rng)
    test_definite_reads_zero_pivot_as_not_definite()
    test_definite_agrees_with_inertia_count(rng)
    test_definite_test_matches_shifted_count(rng)
    test_definite_test_rebuilds_the_off_diagonal()
    test_definite_test_zero_pivots_and_tiny_pencils()
    test_factor_and_solve_match_reference(rng)
    test_factor_and_solve_agree_with_dense_solve(rng)
    test_one_and_two_row_pencils()
    test_bound_solve_outlives_its_inputs(rng)
    test_lapack_solve_rejects_mismatched_factors()


def test_bound_solve_outlives_its_inputs(rng):
    # the bound dpttrs arguments are raw addresses: the factor alone must
    # keep its pivots, multipliers and buffer alive once every other
    # reference to them and to the inputs is gone
    n = 64
    d = np.abs(rng.standard_normal(n)) + 3.0
    e = 0.3 * rng.standard_normal(n - 1)
    b = rng.standard_normal(n)
    ref = _ldl_solve_py(*_ldl_factor_py(d, e), b)
    solve = K.ldl_factor(d.copy(), e.copy()).solve
    gc.collect()
    junk = [np.full(k, np.nan) for k in (n - 1, n, 2 * n - 1) for _ in range(64)]
    x = solve(b)
    assert np.array_equal(x, ref) and np.array_equal(x, K.ldl_factor(d, e).solve(b))
    assert all(np.isnan(j).all() for j in junk)


def test_lapack_solve_rejects_mismatched_factors():
    # dpttrs reads n - 1 multipliers and writes n values through raw pointers;
    # the Python recurrences would zip the arrays to the shortest
    factor = K.ldl_factor(np.full(4, 3.0), np.ones(3))
    for lo, b in [(factor.low[:2], np.ones(4)), (factor.low, np.ones(3)), (factor.low, np.ones((4, 1)))]:
        with pytest.raises(ValueError):
            K.LDLFactor(factor.diag, lo).solve(b)


def _kkt_systems(rng):
    """Symmetric tridiagonal (d, e), indefinite like the minimizer's KKT
    matrix, with two right-hand sides: sizes 1, 2 and up to 120, rows
    where |e| > |d| (a row swap), and exactly singular ones."""
    for n in [1, 2, 1, 2, 3] + [int(v) for v in rng.integers(3, 120, size=16)]:
        d, e, b = rng.standard_normal(n), rng.standard_normal(n - 1), rng.standard_normal((2, n))
        yield d, e, b
        z = d.copy()
        z[rng.integers(0, n)] = 0.0
        yield z, 0.0 * e, b  # a zero pivot with nothing to swap in: info > 0


def _swaps(d, e):
    return int(np.any(np.abs(e) > np.abs(d[:-1])))


def test_tridiagonal_system_matches_reference(backend, rng):
    # the bound dgtsv and its stand-in make reference dgtsv's operations:
    # the reference loop's bits, its info, and a solution of the dense system
    infos, swaps = set(), 0
    for d, e, b in _kkt_systems(rng):
        want, info = _gtsv_ref(d, e, e, b)
        system = K.TridiagonalSystem(d.shape[0], 2)
        got = system(d, e, b)
        assert system._info.value == info
        infos.add(info > 0)
        swaps += _swaps(d, e)
        if info:
            assert got is None
            continue
        assert got.tobytes() == want.tobytes()
        dense = np.diag(d) + np.diag(e, -1) + np.diag(e, 1)
        np.testing.assert_allclose(dense @ got.T, b.T, rtol=1e-8, atol=1e-8 * np.abs(got).max())
    assert infos == {True, False} and swaps > 10


@pytest.mark.skipif(K._GTSV is None, reason="numpy bundles no LAPACK dgtsv here")
def test_python_tridiagonal_system_gives_lapack_bits(rng, monkeypatch):
    # the Python stand-in leaves the whole buffer [DL, D, DU, X] and info as
    # LAPACK's dgtsv does: n = 1 and 2, row swaps, and exactly singular
    # systems, where both stop at the same row
    ones = np.ones((2, 3))
    cases = [
        (np.array([3.0]), np.zeros(0), np.array([[5.0], [-1.0]])),
        (np.array([0.0]), np.zeros(0), np.array([[5.0], [-1.0]])),  # info 1
        (np.array([2.0, 1.0]), np.array([0.5]), np.array([[1.0, 2.0], [3.0, -1.0]])),
        (np.array([0.5, 1.0]), np.array([2.0]), np.array([[1.0, 2.0], [3.0, -1.0]])),  # |e| > |d|: a swap
        (np.array([0.5, 1.0, 3.0]), np.array([2.0, 4.0]), ones),  # a swap on every row
        (np.array([1.0, 1.0, 3.0]), np.array([1.0, 0.0]), ones),  # 1 - 1*1 = 0: info 2
        (np.array([1.0, 4.0]), np.array([2.0]), np.ones((2, 2))),  # singular after a swap: info 2
    ]
    cases += list(_kkt_systems(rng))

    def run(d, e, b):
        system = K.TridiagonalSystem(d.shape[0], 2)
        x = system(d, e, b)
        buf = np.concatenate([system._dl, system._d, system._du, system._x.ravel()])
        return system._info.value, x is None, buf.tobytes()

    infos, swaps = [], 0
    for d, e, b in cases:
        want = run(d, e, b)
        with monkeypatch.context() as m:
            m.setattr(K, "_GTSV", None)
            got = run(d, e, b)
        assert got == want, (d, e)
        assert want[0] == _gtsv_ref(d, e, e, b)[1]
        infos.append(want[0])
        swaps += _swaps(d, e)
    assert infos[:7] == [0, 1, 0, 0, 0, 2, 2] and swaps > 10


def test_tridiagonal_system_refuses_mismatched_shapes():
    system = K.TridiagonalSystem(4, 2)
    ones = np.ones(4)
    for args in [
        (np.ones(3), ones[:3], (ones, ones)),
        (ones, ones[:2], (ones, ones)),
        (ones, ones[:3], (ones,)),
        (ones, ones[:3], (ones, ones[:3])),
    ]:
        with pytest.raises(ValueError):
            system(*args)


def test_python_definiteness_test_keeps_no_pivots(python_backend):
    # a test on the Python backend runs the recurrence for its info alone and
    # leaves T - s*W in the buffer; a factor writes its pivots back
    d, e, w = np.array([4.0, 3.0, 5.0]), np.array([1.0, 2.0]), np.ones(3)
    pencil = K.PencilWorkspace(d, e, w)
    assert pencil(1.0) and pencil._info.value == 0
    assert pencil._diag.tolist() == [3.0, 2.0, 4.0] and pencil._off.tolist() == [1.0, 2.0]
    assert not pencil(2.9) and pencil._info.value == 2  # 0.1 - 1/1.1 < 0: row 2
    assert pencil._diag.tobytes() == (d - 2.9 * w).tobytes()
    factor = pencil.factor(1.0)
    ref_diag, ref_low = _ldl_factor_py(d - 1.0, e)
    assert pencil._diag.tobytes() == ref_diag.tobytes() == factor.diag.tobytes()
    assert pencil._off.tobytes() == ref_low.tobytes() == factor.low.tobytes()


def test_workspace_hessian_matches_reference_loop(rng):
    # g/v at each point is w |v|^{p-2}, to rounding, and 0 where v = 0;
    # the (cells, q) by (q, 3) product gathers it onto the nodes
    for cells in (1, 32, 255):
        w, t = np.abs(rng.standard_normal((cells, 8))), np.sort(rng.uniform(0.0, 1.0, 8))
        base = np.abs(rng.standard_normal(cells + 1))
        signed = rng.standard_normal(cells + 1)
        zeros = base.copy()
        zeros[: cells // 2 + 1] = 0.0  # cells whose every point is 0
        for p in (3.0, 4.0, 2.6667):
            power = K.PowerWorkspace(w, t, p)
            for u in (base, signed, zeros):
                d, e = power.hessian(u, power.value(u)[1])
                want_d, want_e = _power_hessian_loop_py(u, w, t, p)
                np.testing.assert_allclose(d, want_d, rtol=1e-13, atol=0.0)
                np.testing.assert_allclose(e, want_e, rtol=1e-13, atol=0.0)
            d, e = power.hessian(zeros, power.value(zeros)[1])
            assert np.all(d[: cells // 2] == 0.0) and np.all(e[: cells // 2] == 0.0)


def test_tally_counts_every_call_served(backend, rng):
    # building a test counts nothing, each call of it one test, each factor
    # one factorization, and a solve refused for its shape is no solve
    d, e = np.full(8, 3.0), np.ones(7)
    before = dict(K.COUNTS)
    test = K.definite_test(d, e, np.ones(8))
    assert K.COUNTS == before
    with kernel_calls() as calls:
        assert [test(s) for s in (0.0, 1.0, 9.0)] == [True, True, False]
        factor = K.ldl_factor(d, e)
        factor.solve(np.ones(8))
        factor.solve(np.ones(8))
        with pytest.raises(ValueError):
            factor.solve(np.ones(7))
        u, w, t = rng.random(9), rng.random((8, 4)), np.linspace(0.1, 0.9, 4)
        K.power_moment(u, w, t, 3.0)
        K.power_moment_grad(u, w, t, 3.0)
        K.tridiag_solve(d, e, np.ones(8))
    assert calls == {"definite_tests": 3, "factorizations": 2, "solves": 3, "evaluations": 2}


def _weighted_pencils(rng):
    """Graded tridiagonals T, each with a positive diagonal W
    (``w_off=None``) and with a tridiagonal one."""
    for d, e in list(_graded_pencils())[::5]:
        n = d.shape[0]
        w = np.abs(rng.standard_normal(n)) + 1.0
        for w_off in (None, 0.2 * rng.uniform(-1.0, 1.0, n - 1)):
            yield d, e, w, w_off


def test_workspace_factor_has_the_bits_of_the_shifted_matrix(backend, rng):
    # factor(s) forms T - s*W in the buffer the tests use: the bits of
    # ldl_factor(d - s*w, e - s*w_off) where s tests definite, and the same
    # refusal where it does not
    outcomes = set()
    for d, e, w, w_off in _weighted_pencils(rng):
        pencil = K.PencilWorkspace(d, e, w, w_off)
        for s in (-2.0, 0.1, 3.0):
            shifted = (d - s * w, e if w_off is None else e - s * w_off)
            definite = pencil(s)
            outcomes.add(definite)
            if not definite:
                for make in (lambda: pencil.factor(s), lambda: K.ldl_factor(*shifted)):
                    with pytest.raises(DomainError):
                        make()
                continue
            got, want = pencil.factor(s), K.ldl_factor(*shifted)
            assert got.diag.tobytes() == want.diag.tobytes() and got.low.tobytes() == want.low.tobytes()
    assert outcomes == {True, False}


def test_workspace_factor_outlives_later_tests_and_factors(backend, rng):
    # the estimate solves with its factor while the bisection goes on
    # testing the same pencil: the factor owns its pivots, so its solves
    # keep their bits
    for d, e, w, w_off in _weighted_pencils(rng):
        pencil = K.PencilWorkspace(d, e, w, w_off)
        b = rng.standard_normal(d.shape[0])
        s = -2.0
        assert pencil(s)
        factor = pencil.factor(s)
        before = factor.solve(b).copy()  # a solve returns the factor's buffer
        for t in (-5.0, 0.0, 4.0, s):
            pencil(t)
        pencil.factor(-3.0)
        assert factor.solve(b).tobytes() == before.tobytes()
        assert before.tobytes() == _ldl_solve_py(*_ldl_factor_py(d - s * w, e if w_off is None else e - s * w_off), b).tobytes()


def test_factor_refuses_a_shift_that_is_not_definite(backend):
    # a factor exists only for a shift that tests definite: a zero or a
    # negative pivot, from the matrix or from the shift, is a DomainError
    # that names the shift, and the workspace factors on afterwards
    d, e, w = np.array([2.0, 2.0, 4.0, 3.0]), np.array([1.0, 0.5, 1.0]), np.ones(4)
    cases = [  # (T, shift, second pivot of T - s*W)
        (d, 1.0, 0.0),  # from the shift: (2 - 1) - 1/1
        (d, 1.5, -1.5),  # from the shift: (2 - 1.5) - 1/0.5
        (d - 1.0, 0.0, 0.0),  # from the matrix
        (np.array([1.0, 0.5, 4.0, 3.0]), 0.0, -0.5),  # from the matrix: 0.5 - 1/1
    ]
    for t, s, pivot in cases:
        d_s = t - s * w
        assert d_s[0] > 0.0 and d_s[1] - e[0] / d_s[0] * e[0] == pivot
        pencil = K.PencilWorkspace(t, e, w)
        assert not pencil(s)
        with pytest.raises(DomainError, match=f"at s = {s!r}"):
            pencil.factor(s)
        factor = pencil.factor(-1.0)
        ref_diag, ref_low = _ldl_factor_py(t + w, e)
        assert factor.diag.tobytes() == ref_diag.tobytes() and factor.low.tobytes() == ref_low.tobytes()


def test_one_shot_kernels_refuse_an_exact_zero_pivot():
    # pivot 2 is exactly zero: ldl_factor and tridiag_solve refuse the
    # matrix as a DomainError at s = 0.0 rather than carry inf/nan on
    d = np.array([1.0, 1.0, 3.0, 2.0])
    e = np.array([1.0, 0.5, 1.0])
    b = np.array([1.0, -2.0, 0.5, 1.0])
    assert d[1] - e[0] / d[0] * e[0] == 0.0
    assert not K.definite_test(d, e, np.ones(4))(0.0)
    for make in (lambda: K.ldl_factor(d, e), lambda: K.tridiag_solve(d, e, b)):
        with pytest.raises(DomainError, match="at s = 0.0"):
            make()


def test_import_resolves_backend_without_scipy():
    bundled = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas64_*"))
    src = os.path.dirname(os.path.dirname(K.__file__))
    code = "import sys, hardylab.cli, hardylab._kernels as K; print('scipy' in sys.modules, K.BACKEND)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.split() == ["False", "lapack" if bundled else "python"]


def test_power_moment_paths_agree(rng):
    # p = 3 is the S^4 and S^5 exponent of the minimizer workload (p - 1 = 2
    # takes NumPy's square path), p = 4 the flat ball's, 8/3 a general pow;
    # u changes sign inside cells and is exactly zero at some nodes, where
    # sign(v) |v|^{p-1} = 0
    ncell, nq = 64, 16
    u = rng.standard_normal(ncell + 1)
    u[[0, 7, 8, 30, ncell]] = 0.0
    assert np.any(u[:-1] * u[1:] < 0.0)
    w = np.abs(rng.standard_normal((ncell, nq)))
    t = np.linspace(0.01, 0.99, nq)
    for p in (3.0, 4.0, 8.0 / 3.0):
        f_only = K.power_moment(u, w, t, p)
        assert f_only == pytest.approx(_power_moment_loop_py(u, w, t, p), rel=1e-12)

        g_loop = np.zeros(ncell + 1)
        f_loop = _power_moment_grad_loop_py(u, w, t, p, g_loop)
        f, g = K.power_moment_grad(u, w, t, p)
        assert f == pytest.approx(f_loop, rel=1e-12)
        assert f == pytest.approx(f_only, rel=1e-14)
        np.testing.assert_allclose(g, g_loop, rtol=1e-12, atol=1e-12)

        # a node whose cells are zero elsewhere: no gradient past its cells
        z = np.zeros(ncell + 1)
        z[10] = 1.0
        _, g_z = K.power_moment_grad(z, w, t, p)
        assert np.all(g_z[:9] == 0.0) and np.all(g_z[12:] == 0.0) and np.all(g_z[9:12] > 0.0)


def _bits(f, g):
    return np.float64(f).tobytes(), g.tobytes()


def test_sign_free_power_moment_grad_matches_general_path(rng):
    # a profile with no sign bit set takes the path without abs and
    # copysign; -0.0, negative entries and -nan take the general one; +nan
    # and +inf stay on the sign-free path.  Every case returns the general
    # path's bits, on the minimizer's Gauss points and on a 1-D grid with
    # the cell ends t = 0 and t = 1 (where an infinite end times 0 is nan)
    forms = assemble_forms(build_grid(math.pi, 32, 2.0, "reflected"), unit_sphere(4), 1.0)
    grids = [(forms.hs_weights, forms.hs_t), (np.abs(rng.standard_normal((32, 9))), np.linspace(0.0, 1.0, 9))]
    base = np.abs(rng.standard_normal(33))
    base[[5, 20]] = 0.0
    profiles = {"non-negative": base}
    for name, idx, value in [
        ("-0.0", [0, 9, 32], -0.0),
        ("negative", [3, 4], -0.25),
        ("nan", [7], np.nan),
        ("-nan", [7], -np.nan),
        ("inf", [12], np.inf),
    ]:
        u = base.copy()
        u[idx] = value
        profiles[name] = u
    assert not np.signbit(profiles["nan"]).any() and np.signbit(profiles["-nan"]).any()
    for w, t in grids:
        for p in (3.0, 4.0, 8.0 / 3.0):
            for name, u in profiles.items():
                with np.errstate(invalid="ignore", over="ignore"):
                    got = K.power_moment_grad(u, w, t, p)
                    want = _power_moment_grad_general(u, w, t, p)
                assert _bits(*got) == _bits(*want), (name, p)


def test_workspace_value_and_gradient_match_the_one_shot_kernel(rng):
    # one workspace, reused across profiles: its value and gradient give the
    # bits of power_moment_grad and of the general path, and each value
    # counts one evaluation while a gradient counts none
    for cells in (1, 32, 255):
        w, t = np.abs(rng.standard_normal((cells, 7))), np.sort(rng.uniform(0.0, 1.0, 7))
        base = np.abs(rng.standard_normal(cells + 1))
        signed = rng.standard_normal(cells + 1)
        signed[0] = -abs(signed[0])
        minus_zero = base.copy()
        minus_zero[[0, cells]] = -0.0
        for p in (3.0, 4.0, 2.6667):
            power = K.PowerWorkspace(w, t, p)
            for name, u in [("sign-free", base), ("signed", signed), ("-0.0", minus_zero)]:
                with kernel_calls() as calls:
                    f, g = power.value(u)
                    got = f, power.gradient(g)
                assert calls["evaluations"] == 1
                assert _bits(*got) == _bits(*K.power_moment_grad(u, w, t, p)), (cells, p, name)
                assert _bits(*got) == _bits(*_power_moment_grad_general(u, w, t, p)), (cells, p, name)
