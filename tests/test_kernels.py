"""The kernels must return the same bits as plain reference loops that index
the arrays element by element, on both backends: the one resolved at import
(LAPACK ``dpttrf``/``dpttrs`` where numpy bundles them) and the Python-float
recurrences that run when the LAPACK handles are missing.  The definiteness
test is checked against dense generalized eigenvalues and against the
inertia count."""

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
    x[n - 1] /= diag[n - 1]
    for i in range(n - 2, -1, -1):
        x[i] = x[i] / diag[i] - low[i] * x[i + 1]
    return x


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
    cases += list(_graded_pencils())  # indefinite: pivots of both signs
    for d, e in cases:
        b = rng.standard_normal(d.shape[0])
        diag, low = K.ldl_factor(d, e)
        ref_diag, ref_low = _ldl_factor_py(d, e)
        assert np.array_equal(diag, ref_diag) and np.array_equal(low, ref_low)
        ref = _tridiag_solve_py(d, e, b)
        assert np.array_equal(_ldl_solve_py(ref_diag, ref_low, b), ref)
        assert np.array_equal(K.ldl_solve(diag, low, b), ref)
        assert np.array_equal(K.tridiag_solve(d, e, b), ref)


def test_factor_and_solve_agree_with_dense_solve(rng):
    for d, e in _random_pencils(rng):
        d = _definite(d, e)
        b = rng.standard_normal(d.shape[0])
        a = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        assert np.allclose(K.tridiag_solve(d, e, b), np.linalg.solve(a, b), rtol=1e-9, atol=1e-9)


def test_exact_zero_pivot_gives_reference_inf_and_nan():
    # pivot 2 is exactly zero: the reference loop divides by it and carries
    # inf/nan on; the kernels must return the same bits
    d = np.array([1.0, 1.0, 3.0, 2.0])
    e = np.array([1.0, 0.5, 1.0])
    b = np.array([1.0, -2.0, 0.5, 1.0])
    with np.errstate(divide="ignore", invalid="ignore"):
        ref_diag, ref_low = _ldl_factor_py(d, e)
        ref = _tridiag_solve_py(d, e, b)
        diag, low = K.ldl_factor(d, e)
        x = K.tridiag_solve(d, e, b)
        x_factored = K.ldl_solve(diag, low, b)
    assert ref_diag[1] == 0.0 and not np.all(np.isfinite(ref))
    np.testing.assert_array_equal(diag, ref_diag)
    np.testing.assert_array_equal(low, ref_low)
    np.testing.assert_array_equal(x, ref)
    np.testing.assert_array_equal(x_factored, ref)


def test_one_and_two_row_pencils():
    # n = 1 divides (dpttrs would multiply by 1/D(1), an ulp off: 5 * (1/3) != 5/3)
    d1, e1, b1 = np.array([3.0]), np.zeros(0), np.array([5.0])
    diag, low = K.ldl_factor(d1, e1)
    assert diag.tolist() == [3.0] and low.shape == (0,)
    assert K.ldl_solve(diag, low, b1).tolist() == [5.0 / 3.0] != [5.0 * (1.0 / 3.0)]
    assert K.tridiag_solve(d1, e1, b1).tolist() == _tridiag_solve_py(d1, e1, b1).tolist()
    assert [K.negcount(np.array([v]), e1) for v in (3.0, -3.0, 0.0)] == [0, 1, -1]
    assert [_definite_at_zero(np.array([v]), e1) for v in (3.0, -3.0, 0.0)] == [True, False, False]
    for d in ([3.0, 2.0], [3.0, -2.0], [-3.0, 2.0], [-3.0, -2.0], [0.5, 1.0 / 3.0]):
        d2, e2, b2 = np.array(d), np.array([0.7]), np.array([5.0, -1.0])
        assert K.negcount(d2, e2) == _negcount_py(d2, e2)
        assert _definite_at_zero(d2, e2) == (_negcount_py(d2, e2) == 0)
        ref_diag, ref_low = _ldl_factor_py(d2, e2)
        diag, low = K.ldl_factor(d2, e2)
        assert np.array_equal(diag, ref_diag) and np.array_equal(low, ref_low)
        assert np.array_equal(K.ldl_solve(diag, low, b2), _ldl_solve_py(ref_diag, ref_low, b2))
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


def test_python_path_matches_reference(rng, monkeypatch):
    """The tests above, run on the Python-float recurrences (the LAPACK
    handles set to None); the tests themselves run on the backend resolved
    at import."""
    monkeypatch.setattr(K, "_PTTRF", None)
    monkeypatch.setattr(K, "_PTTRS", None)
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
    test_exact_zero_pivot_gives_reference_inf_and_nan()
    test_one_and_two_row_pencils()


def test_lapack_solve_rejects_mismatched_factors():
    # dpttrs reads n - 1 multipliers and writes n values through raw pointers
    if K.BACKEND != "lapack":
        pytest.skip("numpy bundles no LAPACK with dpttrf/dpttrs")
    diag, low = K.ldl_factor(np.full(4, 3.0), np.ones(3))
    for lo, b in [(low[:2], np.ones(4)), (low, np.ones(3)), (low, np.ones((4, 1)))]:
        with pytest.raises(ValueError):
            K.ldl_solve(diag, lo, b)


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
