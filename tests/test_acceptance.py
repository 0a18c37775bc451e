"""Acceptance suite: one test per criterion, printed as PASS/FAIL lines.

Every tolerance is pinned to the stated value.  Three clauses are known to
be unattainable for reasons recorded in the project decision notes (the
sigma = 1.99 endpoint distance, the +1e-6 cap on the discrete pencil value
in the non-attained regime, and the 0.2 concentration jump); they are
implemented exactly as stated and fail with explanatory messages rather
than being loosened.
"""

import math
import time

import numpy as np

from hardylab.bubble import bubble_grad, bubble_quotient, pohozaev_residual
from hardylab.constants import (
    hardy_constant,
    hardy_sobolev_constant,
    sobolev_constant,
)
from hardylab.eigensolver import smallest_generalized_eigen
from hardylab.expansion import fit_expansion, quotient_series, theory_coefficient
from hardylab.forms import assemble_forms, build_grid
from hardylab.hardy_refined import build_log_grid, flat_operator_residual, improved_hardy_eigen
from hardylab.manifold import euclidean_ball, unit_sphere
from hardylab.minimizer import bubble_init, minimize_quotient
from hardylab.thresholds import (
    constant_profile_bound,
    lambda_star_bracket,
    mu_curve,
    mu_of_lambda,
    strict_inequality_report,
)


def _report(criterion, ok, detail, t0=None):
    elapsed = f" [{time.perf_counter() - t0:.1f}s]" if t0 is not None else ""
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}{elapsed}")
    return ok


def test_criterion_01_lieb_cross_check():
    t0 = time.perf_counter()
    ok = True
    details = []
    for n in (3, 4, 5, 6):
        for s in (0.0, 0.5, 1.0, 1.5):
            t1 = time.perf_counter()
            ref = sobolev_constant(n) if s == 0.0 else hardy_sobolev_constant(n, s)
            quad = bubble_quotient(n, s)
            dt = time.perf_counter() - t1
            rel = abs(quad / ref - 1.0)
            pair_ok = rel <= 1e-6 and dt < 1.0
            ok &= pair_ok
            if not pair_ok:
                details.append(f"(N={n},s={s}): rel={rel:.2e}, {dt:.2f}s")
    assert _report(1, ok, "formula vs quadrature, 16 pairs at rel 1e-6" + "; ".join(details), t0)


def test_criterion_02_endpoint_consistency():
    t0 = time.perf_counter()
    low_ok = all(
        abs(hardy_sobolev_constant(n, 1e-6) / sobolev_constant(n) - 1.0) <= 1e-5
        for n in (3, 4, 5)
    )
    gaps = {n: abs(hardy_sobolev_constant(n, 1.99) - hardy_constant(n)) for n in (3, 4, 5)}
    high_ok = all(g <= 1e-2 for g in gaps.values())
    detail = (
        f"sigma->0 at 1e-5: {'ok' if low_ok else 'FAIL'}; "
        f"sigma=1.99 gaps {{N: |S-cap|}} = "
        + ", ".join(f"{n}: {g:.4f}" for n, g in gaps.items())
    )
    _report(2, low_ok and high_ok, detail, t0)
    assert low_ok
    assert high_ok, (
        "the sigma -> 2 limit equals the inverse-square constant but converges "
        f"like (2-sigma)log(1/(2-sigma)); at sigma=1.99 the true gaps are {gaps} "
        "(exceeding 1e-2 for every N; see decision notes)"
    )


def test_criterion_03_pohozaev():
    t0 = time.perf_counter()
    ok = True
    rows = []
    for n, s in ((5, 0.5), (5, 1.0), (6, 1.0)):
        t1 = time.perf_counter()
        res = pohozaev_residual(n, s)
        dt = time.perf_counter() - t1
        rows.append(f"({n},{s}): {res:.2e}")
        ok &= res <= 1e-8 and dt < 2.0
    assert _report(3, ok, "relative residuals " + ", ".join(rows), t0)


def test_criterion_04_local_hardy_floor():
    t0 = time.perf_counter()
    ball = euclidean_ball(3, 1.0)
    mus = []
    for M in (512, 1024, 2048, 4096):
        forms = assemble_forms(build_grid(1.0, M, 2.0, "dirichlet"), ball, 2.0)
        mus.append(smallest_generalized_eigen(forms, 0.0).mu)
    in_window = 0.25 <= mus[0] <= 0.32
    decreasing = all(a >= b for a, b in zip(mus, mus[1:]))
    floored = all(mu >= 0.25 - 1e-6 for mu in mus)
    elapsed = time.perf_counter() - t0
    ok = in_window and decreasing and floored and elapsed < 10.0
    assert _report(
        4, ok, f"mu(512..4096) = {[f'{m:.6f}' for m in mus]}, window/monotone/floor", t0
    )


def test_criterion_05_improved_hardy():
    t0 = time.perf_counter()
    vals = {n: improved_hardy_eigen(n, 0.1, M=1024).value for n in (3, 4)}
    elapsed = time.perf_counter() - t0
    ok = all(v >= 0.99 for v in vals.values()) and elapsed < 5.0
    assert _report(5, ok, f"pencil eigenvalues {vals}", t0)


def test_criterion_06_flat_residual_order():
    t0 = time.perf_counter()
    ok = True
    rows = []
    for n in (3, 4):
        for a in (-1.0, -0.5, 0.5):
            r1 = flat_operator_residual(a, 0.0, n, build_log_grid(1e-4, 0.5, 512))
            r2 = flat_operator_residual(a, 0.0, n, build_log_grid(1e-4, 0.5, 1024))
            rate = math.log2(r1 / r2)
            rows.append(f"N={n},a={a}: {rate:.2f}")
            ok &= rate >= 1.9
    # structural case: a = 0 solves the critical equation exactly
    r1 = flat_operator_residual(0.0, 0.0, 3, build_log_grid(1e-4, 0.5, 512))
    r2 = flat_operator_residual(0.0, 0.0, 3, build_log_grid(1e-4, 0.5, 1024))
    struct_rate = math.log2(r1 / r2)
    ok &= struct_rate >= 1.9
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    assert _report(6, ok, "orders " + ", ".join(rows) + f"; a=0 pure-h^2 rate {struct_rate:.2f}", t0)


def test_criterion_07_mu_curve_structure_s3():
    t0 = time.perf_counter()
    m = unit_sphere(3)
    lams = [-3.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0]
    curve = mu_curve(m, lams, M=2048)
    decreasing = bool(np.all(np.diff(curve.mus) < 0.0))
    mu0 = float(curve.mus[curve.lambdas == 0.0][0])
    res0 = smallest_generalized_eigen(
        assemble_forms(build_grid(math.pi, 2048, 2.0, "reflected"), m, 2.0), 0.0
    )
    spread = float(np.max(res0.profile) - np.min(res0.profile))
    constant_mode = abs(mu0) <= 1e-8 and spread <= 1e-6 * float(np.max(np.abs(res0.profile)))
    cap_excess = float(np.max(curve.mus)) - (hardy_constant(3) + 1e-6)
    cap_ok = cap_excess <= 0.0
    bracket = lambda_star_bracket(m, tol_lambda=0.1, M=2048)
    bound = constant_profile_bound(m)
    bracket_ok = (bracket.hi - bracket.lo) <= 0.1 + 1e-12 and bracket.hi <= bound + 1e-9
    elapsed = time.perf_counter() - t0
    detail = (
        f"decreasing={decreasing}, mu(0)={mu0:.2e}, cap excess={cap_excess:+.4f}, "
        f"bracket=[{bracket.lo:.3f},{bracket.hi:.3f}] vs bound {bound:.4f}"
    )
    _report(7, decreasing and constant_mode and cap_ok and bracket_ok and elapsed < 30.0, detail, t0)
    assert decreasing and constant_mode and bracket_ok and elapsed < 30.0
    assert cap_ok, (
        "discrete mu exceeds cap+1e-6 in the non-attained regime: the continuous "
        "value equals the cap exactly for lambda below the threshold and the "
        "discrete minimum approaches it only like 1/log(1/r_min)^2 "
        f"(excess {cap_excess:+.4f} at M=2048; unreachable at any feasible grid; "
        "see decision notes)"
    )


def test_criterion_08_attainment_dichotomy():
    t0 = time.perf_counter()
    m = unit_sphere(3)
    bracket = lambda_star_bracket(m, tol_lambda=0.1, M=1024)
    lam_below = bracket.lo - 0.5
    lam_above = bracket.hi + 0.5
    _, conc_below_coarse, _ = mu_of_lambda(m, lam_below, M=1024)
    _, conc_below_fine, _ = mu_of_lambda(m, lam_below, M=2048)
    _, conc_above_coarse, _ = mu_of_lambda(m, lam_above, M=1024)
    _, conc_above_fine, _ = mu_of_lambda(m, lam_above, M=2048)
    jump = conc_below_fine - conc_below_coarse
    drift = abs(conc_above_fine - conc_above_coarse)
    elapsed = time.perf_counter() - t0
    detail = (
        f"below (lam={lam_below:.2f}): conc {conc_below_coarse:.4f}->{conc_below_fine:.4f} "
        f"(jump {jump:+.4f}); above (lam={lam_above:.2f}): drift {drift:.5f}"
    )
    _report(8, jump >= 0.2 and drift <= 0.05 and elapsed < 30.0, detail, t0)
    assert drift <= 0.05 and elapsed < 30.0
    assert jump > 0.0, "below-threshold concentration must grow under refinement"
    assert jump >= 0.2, (
        "the concentration diagnostic increases steadily (a few percent per "
        "dyadic refinement) rather than jumping by 0.2 in a single step at any "
        f"grid size (measured {jump:+.4f}); the qualitative dichotomy holds, the "
        "0.2 quantification does not (see decision notes)"
    )


def test_criterion_09_theorem2_checks():
    rows = []
    ok = True
    for m, lam, s in ((unit_sphere(4), -1.0, 1.0), (unit_sphere(5), -0.5, 0.5)):
        t0 = time.perf_counter()
        rep = strict_inequality_report(m, lam, s, M=1024)
        dt = time.perf_counter() - t0
        good = (
            rep.criterion_holds
            and rep.verdict == "CONFIRMS_THEOREM"
            and rep.margin > 5.0 * rep.error_estimate
            and dt < 60.0
        )
        ok &= good
        rows.append(
            f"(S{m.N}, lam={lam}, s={s}): mu={rep.mu_upper:.5f} < S={rep.sharp_constant:.5f}, "
            f"margin={rep.margin:.3f} vs 5*err={5 * rep.error_estimate:.2e}, {dt:.0f}s"
        )
    assert _report(9, ok, "; ".join(rows))


def test_criterion_10_expansion_fit():
    t0 = time.perf_counter()
    s51 = hardy_sobolev_constant(5, 1.0)
    pinned = [4, 8, 16, 32, 64]
    ser5 = quotient_series(unit_sphere(5), -1.0, 1.0, pinned)
    fit5 = fit_expansion(ser5)
    th5 = theory_coefficient(unit_sphere(5), -1.0, 1.0)
    c0_ok = abs(fit5.c0 / s51 - 1.0) <= 0.01
    c1_dev = abs(fit5.c1 / th5 - 1.0)
    c1_ok = c1_dev <= 0.15

    fit4m1 = fit_expansion(quotient_series(unit_sphere(4), -1.0, 1.0, pinned))
    fit4m3 = fit_expansion(quotient_series(unit_sphere(4), -3.0, 1.0, pinned))
    flat = quotient_series(euclidean_ball(5, 8.0), 0.0, 1.0, pinned)
    fit_flat = fit_expansion(flat)
    flat_gate = 0.05 * float(np.mean(flat.quotient))
    signs_ok = (
        fit4m1.c1 > 0  # 12 + 6*(-1) > 0
        and fit5.c1 > 0  # 20 + 6*(-1) > 0
        and abs(fit_flat.c1) <= flat_gate  # flat: coefficient vanishes
        and fit4m3.c1 < 0  # 12 + 6*(-3) < 0
    )
    log_model_ok = fit4m1.model == "log-corrected" and fit5.model == "inverse-square"
    elapsed = time.perf_counter() - t0
    detail = (
        f"c0={fit5.c0:.4f} ({abs(fit5.c0 / s51 - 1):.2%} of S51), "
        f"c1={fit5.c1:.2f} vs theory {th5:.2f} (dev {c1_dev:.0%}), "
        f"signs: S4l-1={fit4m1.c1:+.2f}, S5l-1={fit5.c1:+.2f}, flat={fit_flat.c1:+.3f} "
        f"(gate {flat_gate:.2f}), S4l-3={fit4m3.c1:+.2f}"
    )
    _report(10, c0_ok and c1_ok and signs_ok and log_model_ok and elapsed < 120.0, detail, t0)
    assert c0_ok and signs_ok and log_model_ok and elapsed < 120.0
    assert c1_ok, (
        "the pinned window n in {4..64} is pre-asymptotic: the one-over-n^3 "
        "transients bias the fitted coefficient far from the quoted formula "
        f"(fit {fit5.c1:.2f} vs formula {th5:.2f}, dev {c1_dev:.0%}); deep windows "
        "converge to ~47.4, which is the carefully re-derived coefficient and "
        "itself sits 14.3% from the quoted formula (see decision notes)"
    )


def test_criterion_11_flat_non_attainment_echo():
    t0 = time.perf_counter()
    ball = euclidean_ball(3, 1.0)
    forms = assemble_forms(build_grid(1.0, 1024, 2.0, "dirichlet"), ball, 1.0)
    s31 = hardy_sobolev_constant(3, 1.0)
    vals, conv = [], []
    for n in (4.0, 16.0, 64.0):
        res = minimize_quotient(forms, 0.0, inits=[bubble_init(forms, n)])
        vals.append(res.mu_upper)
        conv.append(res.converged)
    # the descent converges from every init, so successive values may tie at
    # the discrete minimum; "decreasing" is asserted up to the solver's
    # stationarity tolerance
    tie_tol = 5e-5
    decreasing = all(a >= b - tie_tol for a, b in zip(vals, vals[1:]))
    floored = all(v >= s31 - 1e-3 for v in vals)
    toward = vals[-1] <= s31 * 1.01
    elapsed = time.perf_counter() - t0
    ok = decreasing and floored and toward and elapsed < 30.0
    assert _report(
        11,
        ok,
        f"values {[f'{v:.6f}' for v in vals]} vs S31={s31:.6f} (floor -1e-3, decreasing, toward), "
        f"converged {conv}",
        t0,
    )


def test_criterion_12_moment_symmetry_monte_carlo():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    n_samples = 100_000
    r0 = 1.0
    # uniform sample of the ball: gaussian direction, cubic-root radius
    xyz = rng.standard_normal((n_samples, 3))
    xyz /= np.linalg.norm(xyz, axis=1)[:, None]
    r = r0 * rng.random(n_samples) ** (1.0 / 3.0)
    pts = xyz * r[:, None]
    g2 = bubble_grad(r, 3, 1.0) ** 2
    off = pts[:, 0] * pts[:, 1] * g2
    diag = pts[:, 0] ** 2 * g2
    radial_third = r**2 * g2 / 3.0
    se = lambda x: float(np.std(x, ddof=1) / math.sqrt(n_samples))
    off_ok = abs(float(np.mean(off))) <= 3.0 * se(off)
    paired = diag - radial_third
    diag_ok = abs(float(np.mean(paired))) <= 3.0 * se(paired)
    elapsed = time.perf_counter() - t0
    ok = off_ok and diag_ok and elapsed < 10.0
    assert _report(
        12,
        ok,
        f"off-diag {np.mean(off):+.2e} (3SE {3 * se(off):.2e}); "
        f"diag-minus-third {np.mean(paired):+.2e} (3SE {3 * se(paired):.2e})",
        t0,
    )
