import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from test_kernels import kernel_calls

from hardylab import _kernels, eigensolver
from hardylab.eigensolver import inertia_count, smallest_generalized_eigen
from hardylab.errors import DomainError
from hardylab.forms import assemble_forms, build_grid
from hardylab.manifold import euclidean_ball, unit_sphere


def test_inertia_trivial_brackets():
    rng = np.random.default_rng(3)
    n = 50
    d = rng.standard_normal(n) * 2
    e = rng.standard_normal(n - 1) * 0.5
    w = np.abs(rng.standard_normal(n)) + 0.1
    gersh = np.abs(d) / w + 2 * np.max(np.abs(e)) / np.min(w)
    big = float(np.max(gersh)) + 1.0
    assert inertia_count(d, e, w, -big) == 0
    assert inertia_count(d, e, w, big) == n


def test_inertia_identity_jump():
    n = 17
    d = np.ones(n)
    e = np.zeros(n - 1)
    w = np.ones(n)
    assert inertia_count(d, e, w, 1.0 - 1e-12) == 0
    assert inertia_count(d, e, w, 1.0 + 1e-12) == n


def test_inertia_matches_dense_count():
    rng = np.random.default_rng(5)
    n = 40
    d = rng.standard_normal(n)
    e = rng.standard_normal(n - 1)
    w = np.abs(rng.standard_normal(n)) + 0.2
    evals = scipy.linalg.eigh_tridiagonal(d / w, e / np.sqrt(w[:-1] * w[1:]), eigvals_only=True)
    for shift in (-2.0, -0.3, 0.1, 1.7):
        assert inertia_count(d, e, w, shift) == int(np.sum(evals < shift))


def test_inertia_matches_dense_count_tridiagonal_weight():
    rng = np.random.default_rng(6)
    n = 40
    d = rng.standard_normal(n)
    e = rng.standard_normal(n - 1)
    wd = np.abs(rng.standard_normal(n)) + 2.0
    we = 0.5 * rng.standard_normal(n - 1)  # diagonally dominant, so W is definite
    a = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    b = np.diag(wd) + np.diag(we, 1) + np.diag(we, -1)
    evals = scipy.linalg.eigh(a, b, eigvals_only=True)
    for shift in (-2.0, -0.3, 0.1, 1.7):
        assert inertia_count(d, e, wd, shift, we) == int(np.sum(evals < shift))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(1, 24), tridiagonal_weight=st.booleans())
def test_inertia_matches_dense_count_property(data, n, tridiagonal_weight):
    def vector(size, lo, hi):
        return np.array(data.draw(st.lists(st.floats(lo, hi), min_size=size, max_size=size)))

    d = vector(n, -10.0, 10.0)
    e = vector(n - 1, -10.0, 10.0)
    wd = vector(n, 0.1, 10.0)
    # |we| < min(wd)/2 keeps the tridiagonal weight diagonally dominant, so definite
    we = vector(n - 1, -0.49, 0.49) * float(np.min(wd)) if tridiagonal_weight else None
    shift = data.draw(st.floats(-60.0, 60.0))
    a = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    b = np.diag(wd) if we is None else np.diag(wd) + np.diag(we, 1) + np.diag(we, -1)
    chol = np.linalg.cholesky(b)
    evals = np.linalg.eigvalsh(np.linalg.solve(chol, np.linalg.solve(chol, a).T))
    # a shift resolved from every eigenvalue, so rounding cannot flip the count
    assume(np.min(np.abs(evals - shift)) > 1e-8 * (1.0 + np.max(np.abs(evals))))
    assert inertia_count(d, e, wd, shift, we) == int(np.sum(evals < shift))


def test_inertia_retries_exact_zero_pivot():
    # every pivot of I - 1*I is exactly zero; the retry nudges the shift up
    n = 5
    assert inertia_count(np.ones(n), np.zeros(n - 1), np.ones(n), 1.0) == n


def test_inertia_rejects_bad_weight():
    with pytest.raises(DomainError):
        inertia_count(np.ones(4), np.zeros(3), np.array([1.0, -1.0, 1.0, 1.0]), 0.0)


def test_inertia_rejects_nan_weight():
    with pytest.raises(DomainError):
        inertia_count(np.ones(4), np.zeros(3), np.array([1.0, np.nan, 1.0, 1.0]), 2.0)


@pytest.fixture
def definite_results(monkeypatch):
    """What every definiteness test of every pencil workspace returned, in
    call order."""
    results = []
    test = _kernels.PencilWorkspace.__call__

    def recorded(pencil, shift):
        results.append(test(pencil, shift))
        return results[-1]

    monkeypatch.setattr(_kernels.PencilWorkspace, "__call__", recorded)
    return results


def test_inertia_count_is_weight_check_plus_count_body(backend, definite_results):
    # inertia_count is the weight check plus the Python-float count of
    # T - s*W on both backends; the bisection's test reads "not definite"
    # exactly when that count is at least 1
    rng = np.random.default_rng(13)
    counts = set()
    for n in (1, 2, 7, 40, 120):
        d = 3.0 * rng.standard_normal(n)
        e = rng.standard_normal(n - 1)
        wd = np.abs(rng.standard_normal(n)) + 2.0
        # |we| < min(wd)/2 keeps the tridiagonal weight definite
        for we in (None, 0.9 * rng.uniform(-1.0, 1.0, n - 1)):
            for shift in (-5.0, -0.5, 0.0, 0.7, 4.0):
                got = inertia_count(d, e, wd, shift, we)
                assert got == _kernels.negcount(d - shift * wd, e if we is None else e - shift * we)
                assert _kernels.definite_test(d, e, wd, we)(shift) == (got == 0)
                counts.add(got)
    assert max(counts) > 5  # deep counts too
    # every pivot of I - 1*I is exactly zero: the count retries with a
    # nudged shift, the definiteness test reads False at once
    n = 9
    one, zero = np.ones(n), np.zeros(n - 1)
    definite_results.clear()
    assert inertia_count(one, zero, one, 1.0) == n
    assert not _kernels.definite_test(one, zero, one)(1.0)
    assert definite_results == [False]


# the eigensolve weighs by W2 alone; its cases keep the ids they had beside
# the plain mass weight's
@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
@pytest.mark.parametrize("field", [pytest.param("w2", id="w2-w2")])
def test_eigensolve_rejects_bad_weight_before_counting(field, bad, definite_results):
    forms = assemble_forms(build_grid(1.0, 64, 2.0, "dirichlet"), euclidean_ball(3, 1.0), 2.0)
    weight = getattr(forms, field).copy()
    weight[5] = bad
    with pytest.raises(DomainError, match="weight diagonal must be positive"):
        smallest_generalized_eigen(dataclasses.replace(forms, **{field: weight}), 0.0)
    assert definite_results == []


@pytest.mark.parametrize("field", ["w2"])
def test_eigensolve_checks_its_weight_once(field, monkeypatch, definite_results):
    checks = []
    check = eigensolver._check_weight
    monkeypatch.setattr(eigensolver, "_check_weight", lambda w: checks.append(w.shape) or check(w))
    forms = assemble_forms(build_grid(1.0, 64, 2.0, "dirichlet"), euclidean_ball(3, 1.0), 2.0)
    with kernel_calls() as calls:
        smallest_generalized_eigen(forms, 0.0)
    assert checks == [getattr(forms, field)[forms.dof].shape]
    assert len(definite_results) == calls["definite_tests"] > 0


def _plain_bisect(definite, lo, hi, tol):
    """The bisection loop without probes: every midpoint is tested."""
    steps = 0
    while hi - lo > tol:
        mid = 0.5 * lo + 0.5 * hi
        if mid in (lo, hi):
            break
        if definite(mid):
            lo = mid
        else:
            hi = mid
        steps += 1
    return lo, hi, steps


@pytest.mark.parametrize(
    "m,bc,lam",
    [(unit_sphere(3), "reflected", -1.0), (unit_sphere(3), "reflected", 0.7), (euclidean_ball(3, 1.0), "dirichlet", 0.0)],
)
@pytest.mark.parametrize("field", ["w2"])
def test_eigensolve_bisects_like_plain_bisection_with_fewer_tests(backend, field, m, bc, lam, monkeypatch):
    # the eigensolve's bisection skips the tests its probes answer; a plain
    # bisection of the same pencil from the same bracket must end at the
    # same bracket after the same halvings, and a plain eigensolve must
    # return the same bits
    forms = assemble_forms(build_grid(m.r_max, 256, 2.0, bc), m, 2.0)
    calls = []
    probed = eigensolver._bisect

    def recording(definite, lo, hi, tol, probes=()):
        calls.append(((lo, hi), probes, probed(definite, lo, hi, tol, probes)))
        return calls[-1][2]

    monkeypatch.setattr(eigensolver, "_bisect", recording)
    solves = []
    solve = _kernels.LDLFactor.solve
    monkeypatch.setattr(_kernels.LDLFactor, "solve", lambda factor, b: solves.append(1) or solve(factor, b))
    with kernel_calls() as tally:
        res = smallest_generalized_eigen(forms, lam)
    assert tally["solves"] == len(solves)
    (start, _, _), (_, probes, (lo, hi, _)) = calls[0], calls[-1]
    assert len(calls) == 2 and len(probes) == 2
    pencil = forms.free(forms.kd - lam * forms.md, forms.ke - lam * forms.me)
    plain = _plain_bisect(_kernels.definite_test(*pencil, getattr(forms, field)[forms.dof]), *start, eigensolver._TOL_ABS)
    assert (lo, hi) == plain[:2]
    assert sum(steps for *_, (_, _, steps) in calls) == plain[2]

    calls.clear()
    monkeypatch.setattr(eigensolver, "_bisect", lambda definite, lo, hi, tol, probes=(): _plain_bisect(definite, lo, hi, tol))
    with kernel_calls() as ref_tally:
        ref = smallest_generalized_eigen(forms, lam)
    assert (res.mu, res.iterations, res.residual, res.concentration) == (ref.mu, ref.iterations, ref.residual, ref.concentration)
    assert res.profile.tobytes() == ref.profile.tobytes()
    assert tally["definite_tests"] < ref_tally["definite_tests"] - 10


@pytest.mark.parametrize("m,bc,lam", [(unit_sphere(3), "reflected", -1.0), (euclidean_ball(3, 1.0), "dirichlet", 4.0)])
def test_a_trial_saves_tests_and_moves_no_bit(backend, m, bc, lam):
    # a trial's probes answer tests of the coarse bisection; wherever they
    # fall (a neighbour's profile, a poor or a degenerate trial), the
    # eigensolve returns the unseeded bits, and a neighbour's costs fewer tests
    forms = assemble_forms(build_grid(m.r_max, 256, 2.0, bc), m, 2.0)
    with kernel_calls() as cold_tally:
        cold = smallest_generalized_eigen(forms, lam)
    rng = np.random.default_rng(7)
    trials = {
        "neighbour": smallest_generalized_eigen(forms, lam - 0.5).profile,
        "own": cold.profile,
        "random": rng.standard_normal(forms.n_nodes),
        "zero": forms.zero_profile(),
        "nan": np.full(forms.n_nodes, np.nan),
        "huge": np.full(forms.n_nodes, 1e300),
    }
    for name, trial in trials.items():
        if bc == "dirichlet":
            trial[-1] = 0.0
        with kernel_calls() as tally:
            res = smallest_generalized_eigen(forms, lam, trial)
        assert (res.mu, res.iterations, res.residual, res.concentration) == (
            cold.mu,
            cold.iterations,
            cold.residual,
            cold.concentration,
        ), name
        assert res.profile.tobytes() == cold.profile.tobytes(), name
        if name in ("neighbour", "own"):
            assert tally["definite_tests"] < cold_tally["definite_tests"], name
    with pytest.raises(DomainError, match="nodal values"):
        smallest_generalized_eigen(forms, lam, np.ones(forms.n_nodes + 1))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), n=st.integers(1, 40))
def test_definiteness_is_monotone_in_the_shift(backend, data, n):
    # with a positive diagonal W every pivot of T - s*W is a monotone
    # rounding of the previous one, so definite at s means definite at every
    # shift below s; checked on shifts 1 to 2**20 ulps apart around the
    # switch, where rounding decides the answer
    def vector(size, lo, hi):
        return np.array(data.draw(st.lists(st.floats(lo, hi), min_size=size, max_size=size)))

    d = vector(n, -1e3, 1e3)
    e = vector(n - 1, -1e3, 1e3)
    w = vector(n, 1e-3, 1e3)
    off = e / np.sqrt(w[:-1] * w[1:])
    mu = float(np.linalg.eigvalsh(np.diag(d / w) + np.diag(off, 1) + np.diag(off, -1))[0])
    test = _kernels.definite_test(d, e, w)
    reach = 1.0 + abs(mu)
    assume(test(mu - reach) and not test(mu + reach))
    below, switch, _ = _plain_bisect(test, mu - reach, mu + reach, 0.0)  # adjacent doubles
    step = data.draw(st.sampled_from([1, 4, 64, 2**20])) * math.ulp(switch)
    shifts = sorted({switch + k * step for k in range(-40, 41)} | {below})
    answers = [test(s) for s in shifts]
    assert answers == [s < switch for s in shifts]


@settings(max_examples=200, deadline=None)
@given(
    threshold=st.floats(-2.0, 3.0),
    lo=st.floats(-2.0, 0.5),
    width=st.floats(1e-6, 4.0),
    tol=st.sampled_from([0.0, 1e-12, 1e-10, 1e-3, 0.5]),
    probes=st.lists(
        st.one_of(st.floats(-3.0, 4.0), st.just(math.nan), st.floats(allow_nan=True, allow_infinity=True)),
        max_size=4,
    ),
    near=st.lists(st.floats(-1e-9, 1e-9), max_size=2),
)
def test_probes_never_change_the_bisection(threshold, lo, width, tol, probes, near):
    # whatever the probes (inside or outside the bracket, on the wrong side
    # of the threshold, NaN or infinite) the probe-aware loop returns the
    # plain loop's (lo, hi, steps), and never makes more tests than the plain
    # loop makes plus one per probe
    hi = lo + width
    assume(lo < threshold <= hi)
    probes = probes + [threshold + dx for dx in near]

    def monotone(tests):
        return lambda s: tests.append(s) or s < threshold

    plain_tests, probed_tests = [], []
    plain = _plain_bisect(monotone(plain_tests), lo, hi, tol)
    assert eigensolver._bisect(monotone(probed_tests), lo, hi, tol, probes) == plain
    assert eigensolver._bisect(monotone([]), lo, hi, tol) == plain
    assert len(probed_tests) <= len(plain_tests) + len(probes)
    assert all(lo < s < hi for s in probed_tests)


def test_eigensolve_at_huge_lambda():
    # mu/lambda settles as lambda grows; the inverse iterates scale like
    # 1/lambda, so their W-norm and the residual's 2-norms are taken after an
    # exact power-of-two scaling
    forms = assemble_forms(build_grid(math.pi, 64, 2.0, "reflected"), unit_sphere(3), 2.0)
    ratio = smallest_generalized_eigen(forms, 1e100).mu / 1e100
    for lam in (1e170, 1e200):
        res = smallest_generalized_eigen(forms, lam)
        assert res.mu / lam == pytest.approx(ratio, rel=1e-12)
        assert res.residual <= 1e-9
    # the pencil's scale, (d, e) plus |mu| max(w), still leaves the double range
    for lam in (1e307, 1e308, 1.7e308):
        with pytest.raises(DomainError, match="leaves the double range"):
            smallest_generalized_eigen(forms, lam)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_huge_lambda_is_refused_without_overflow_warnings():
    # K - lambda*Mass, min(d / w) and the inverse iterates' energies may
    # overflow; each is checked, so the refusal is a DomainError with no
    # numpy warning before it
    forms = assemble_forms(build_grid(math.pi, 64, 2.0, "reflected"), unit_sphere(3), 2.0)
    for lam in (1e307, 1e308, 1.7e308, -1.7e308):
        with pytest.raises(DomainError, match="overflows|leaves the double range"):
            smallest_generalized_eigen(forms, lam)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bracket_search_refuses_before_s_times_w_overflows():
    # on S^3 at M = 16 the lower end walks down past 1e308 / max(w) at
    # lambda = 3e307; it is refused before the test forms s*W
    forms = assemble_forms(build_grid(math.pi, 16, 2.0, "reflected"), unit_sphere(3), 2.0)
    with pytest.raises(DomainError, match="leaves the double range"):
        smallest_generalized_eigen(forms, 3e307)


def test_no_finite_inverse_iterate_is_refused(monkeypatch):
    # the constant start vector's quotient is not an answer: without one
    # finite inverse iterate the eigensolve is refused
    forms = assemble_forms(build_grid(math.pi, 64, 2.0, "reflected"), unit_sphere(3), 2.0)
    assert smallest_generalized_eigen(forms, -1.0).mu == pytest.approx(0.3113, abs=1e-4)
    monkeypatch.setattr(_kernels.LDLFactor, "solve", lambda factor, b: np.full_like(b, np.nan))
    with pytest.raises(DomainError, match="leaves the double range"):
        smallest_generalized_eigen(forms, -1.0)


def test_bisect_halves_to_tolerance_or_adjacent_doubles():
    # definite below 0.3: [0, 1] halves to a 1/16-wide bracket of 0.3 in 4
    # tests; a zero tolerance ends at adjacent doubles
    assert eigensolver._bisect(lambda s: s < 0.3, 0.0, 1.0, 0.1) == (0.25, 0.3125, 4)
    lo, hi, steps = eigensolver._bisect(lambda s: s < 0.3, 0.0, 1.0, 0.0)
    assert lo < 0.3 <= hi == math.nextafter(lo, math.inf) and steps > 50
    assert eigensolver._bisect(lambda s: s < 0.3, 0.0, 1.0, 2.0) == (0.0, 1.0, 0)
    # ends near the top of the double range: lo + hi overflows, the midpoint does not
    lo, hi, _ = eigensolver._bisect(lambda s: s < -1.05e308, -1.1e308, -1e308, 1e300)
    assert -1.1e308 <= lo < -1.05e308 <= hi <= -1e308


def test_smallest_eigen_against_scipy():
    ball = euclidean_ball(3, 1.0)
    forms = assemble_forms(build_grid(1.0, 200, 2.0, "dirichlet"), ball, 2.0)
    res = smallest_generalized_eigen(forms, -0.7)
    d, e = forms.free(forms.kd + 0.7 * forms.md, forms.ke + 0.7 * forms.me)
    w = forms.w2[forms.dof]
    evals = scipy.linalg.eigh_tridiagonal(
        d / w, e / np.sqrt(w[:-1] * w[1:]), eigvals_only=True, select="i", select_range=(0, 0)
    )
    assert res.mu == pytest.approx(float(evals[0]), abs=1e-9)


def _mpmath_smallest_eigen(forms, lam):
    """Least eigenvalue of the same double-precision pencil at 30 digits."""
    mp = pytest.importorskip("mpmath")
    n = len(forms.kd[forms.dof])
    with mp.workdps(30):
        a = mp.matrix(n, n)
        w = mp.matrix(n, n)
        lam = mp.mpf(lam)
        for i in range(n):
            a[i, i] = mp.mpf(forms.kd[i]) - lam * mp.mpf(forms.md[i])
            w[i, i] = mp.mpf(forms.w2[i])
            if i + 1 < n:
                a[i, i + 1] = a[i + 1, i] = mp.mpf(forms.ke[i]) - lam * mp.mpf(forms.me[i])
        linv = mp.inverse(mp.cholesky(w))
        c = linv * a * linv.T
        return float(min(mp.eigsy((c + c.T) / 2, eigvals_only=True)))


@pytest.mark.parametrize(
    "m,bc,M",
    [(unit_sphere(3), "reflected", 8), (unit_sphere(3), "reflected", 16), (euclidean_ball(3, 1.0), "dirichlet", 12)],
)
def test_smallest_eigen_against_mpmath(m, bc, M):
    forms = assemble_forms(build_grid(m.r_max, M, 2.0, bc), m, 2.0)
    for lam in (-2.0, -0.5, 1.0):
        want = _mpmath_smallest_eigen(forms, lam)
        got = smallest_generalized_eigen(forms, lam)
        assert got.mu == pytest.approx(want, rel=1e-12), lam
        assert got.method == "inverse-iteration"


def test_laplacian_sanity_pi_squared():
    # the pencil (K, Mass): radial Dirichlet Laplacian on the unit ball in
    # three dimensions has ground value pi^2 (profile sin(pi r)/r); K is
    # definite and pi^2 < 20, so its lambda_1 is bisected to adjacent doubles
    ball = euclidean_ball(3, 1.0)
    mus = []
    for M in (256, 512, 1024):
        forms = assemble_forms(build_grid(1.0, M, 2.0, "dirichlet"), ball, 2.0)
        definite = _kernels.definite_test(*forms.free(forms.kd, forms.ke), *forms.free(forms.md, forms.me))
        lo, hi, _ = eigensolver._bisect(definite, 0.0, 20.0, 0.0)
        assert hi == math.nextafter(lo, math.inf)
        mus.append(hi)
    assert mus[-1] == pytest.approx(math.pi**2, rel=1e-5)
    assert mus[0] >= mus[1] >= mus[2]


def test_full_sphere_constant_mode():
    s3 = unit_sphere(3)
    forms = assemble_forms(build_grid(math.pi, 256, 2.0, "reflected"), s3, 2.0)
    res = smallest_generalized_eigen(forms, 0.0)
    assert abs(res.mu) < 1e-10
    spread = np.max(res.profile) - np.min(res.profile)
    assert spread < 1e-7 * np.max(np.abs(res.profile))


def test_bisection_inertia_consistency():
    s3 = unit_sphere(3)
    forms = assemble_forms(build_grid(math.pi, 512, 2.0, "reflected"), s3, 2.0)
    res = smallest_generalized_eigen(forms, -1.0)
    d, e = forms.free(forms.kd + 1.0 * forms.md, forms.ke + 1.0 * forms.me)
    w = forms.w2[forms.dof]
    assert inertia_count(d, e, w, res.mu - 1e-8) == 0
    assert inertia_count(d, e, w, res.mu + 1e-8) >= 1


def test_mu_strictly_decreasing_in_lambda():
    s3 = unit_sphere(3)
    forms = assemble_forms(build_grid(math.pi, 512, 2.0, "reflected"), s3, 2.0)
    lams = [-3.0, -1.0, -0.3, 0.0, 0.4, 1.2]
    mus = [smallest_generalized_eigen(forms, lam).mu for lam in lams]
    assert all(a > b for a, b in zip(mus, mus[1:]))


def test_refinement_monotonicity():
    s3 = unit_sphere(3)
    mus = []
    for M in (256, 512, 1024):
        forms = assemble_forms(build_grid(math.pi, M, 2.0, "reflected"), s3, 2.0)
        mus.append(smallest_generalized_eigen(forms, -1.0).mu)
    assert mus[0] >= mus[1] >= mus[2]


def test_residual_tolerance_and_normalization():
    ball = euclidean_ball(4, 1.0)
    forms = assemble_forms(build_grid(1.0, 512, 2.0, "dirichlet"), ball, 2.0)
    res = smallest_generalized_eigen(forms, -2.0)
    assert res.residual <= 1e-9
    u = res.profile[forms.dof]
    assert float(np.dot(forms.w2[forms.dof], u * u)) == pytest.approx(1.0, rel=1e-10)


def test_every_profile_bounds_the_discrete_minimum():
    from hardylab.forms import evaluate_quotient

    s3 = unit_sphere(3)
    forms = assemble_forms(build_grid(math.pi, 256, 2.0, "reflected"), s3, 2.0)
    res = smallest_generalized_eigen(forms, -0.5)
    rng = np.random.default_rng(9)
    for _ in range(12):
        u = rng.standard_normal(forms.n_nodes)
        assert evaluate_quotient(forms, u, -0.5, sigma=2.0) >= res.mu - 1e-9
