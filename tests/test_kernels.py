"""The jitted kernels and their pure-NumPy/Python fallbacks must agree."""

import numpy as np
import pytest

from hardylab import _kernels as K


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(11)


def test_negcount_matches_fallback(rng):
    for _ in range(20):
        n = rng.integers(3, 200)
        d = rng.standard_normal(n)
        e = rng.standard_normal(n - 1) * 0.5
        assert K.negcount(d, e) == K._negcount_py(d, e)


def test_negcount_zero_pivot_sentinel():
    d = np.array([0.0, 1.0, 1.0])
    e = np.zeros(2)
    assert K._negcount_py(d, e) == -1
    assert K.negcount(d, e) == -1


def test_tridiag_solve_matches_fallback_and_numpy(rng):
    # the factor-once pair performs the reference loop's operations in the
    # same order, so every path returns the same bits
    for _ in range(10):
        n = int(rng.integers(3, 120))
        d = np.abs(rng.standard_normal(n)) + 2.0
        e = rng.standard_normal(n - 1) * 0.4
        b = rng.standard_normal(n)
        ref = K._tridiag_solve_py(d, e, b)
        assert np.array_equal(K.tridiag_solve(d, e, b), ref)
        assert np.array_equal(K.ldl_solve(*K.ldl_factor(d, e), b), ref)
        assert np.array_equal(K._ldl_solve_py(*K._ldl_factor_py(d, e), b), ref)
        a = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        assert np.allclose(ref, np.linalg.solve(a, b), rtol=1e-9, atol=1e-9)


def test_power_moment_paths_agree(rng):
    ncell, nq = 64, 16
    u = rng.standard_normal(ncell + 1)
    w = np.abs(rng.standard_normal((ncell, nq)))
    t = np.linspace(0.01, 0.99, nq)
    p = 8.0 / 3.0
    v_np = K._power_moment_np(u, w, t, p)
    v_loop = K._power_moment_loop_py(u, w, t, p)
    assert v_np == pytest.approx(v_loop, rel=1e-12)
    assert K.power_moment(u, w, t, p) == pytest.approx(v_np, rel=1e-12)

    g_np = np.zeros(ncell + 1)
    f_np = K._power_moment_grad_np(u, w, t, p, g_np)
    g_loop = np.zeros(ncell + 1)
    f_loop = K._power_moment_grad_loop_py(u, w, t, p, g_loop)
    assert f_np == pytest.approx(f_loop, rel=1e-12)
    assert np.allclose(g_np, g_loop, rtol=1e-10, atol=1e-12)
    f_sel, g_sel = K.power_moment_grad(u, w, t, p)
    assert f_sel == pytest.approx(f_np, rel=1e-12)
    assert np.allclose(g_sel, g_np, rtol=1e-10, atol=1e-12)


def test_env_flag_is_respected():
    import os
    import subprocess
    import sys

    code = "import hardylab._kernels as k; print(k.HAVE_NUMBA)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, HARDYLAB_DISABLE_NUMBA="1"),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"
