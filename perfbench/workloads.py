"""Job lists of the three workloads and the checks on their answers.

A job is one ``hardylab`` CLI command.  ``jobs(workload, seed, index,
scale)`` gives the job list of pass ``index``: seed 0 runs the cases named in
the project's acceptance suite and README unchanged; any other seed draws, for
every pass, new values of lambda (and of a few tolerances and exponents)
inside ranges where every verdict still holds.

Grids are smaller than the acceptance suite's so that one run of the
benchmark holds several passes; ``scale="smoke"`` shrinks them further for
the benchmark's own tests.

Every check reads the job's answer: the exit code, the records it appended to
``records.jsonl`` and the CSV tables it wrote.  A check returns a list of
failure messages (empty when the answer is right).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("pencil-threshold", "minimizer-theorem2", "cli-quadrature")


@dataclass(frozen=True)
class Job:
    label: str  # stable name of the case, used to match reference answers
    argv: list
    check: Callable  # (answer, scale) -> list[str]


def _f(x: float) -> str:
    return repr(float(x))


def _sharp(n, sigma):
    from hardylab.constants import hardy_sobolev_constant

    return hardy_sobolev_constant(n, sigma)


def _records(answer, command):
    return [r for r in answer["records"] if r["command"] == command]


def _table(answer, name):
    lines = answer["tables"].get(name, "").strip().splitlines()
    return [[float(v) for v in line.split(",")] for line in lines[1:]]


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_mu_curve(full_sphere):
    def check(answer, scale):
        rows = _table(answer, "mu_curve")
        errs = []
        if len(rows) != 9:
            errs.append(f"expected 9 curve rows, got {len(rows)}")
        mus = [r[1] for r in rows]
        if any(b >= a for a, b in zip(mus, mus[1:])):
            errs.append("mu is not strictly decreasing in lambda")
        if full_sphere:
            zero = [r[1] for r in rows if abs(r[0]) < 1e-12]
            if not zero:
                errs.append("lambda = 0 missing from the curve")
            elif abs(zero[0]) > 1e-8:
                errs.append(f"mu(0) = {zero[0]:.3e} on the full sphere, not 0 within 1e-8")
        return errs

    return check


def check_lambda_star(tol):
    def check(answer, scale):
        (rec,) = _records(answer, "lambda-star")
        r = rec["results"]
        errs = []
        if r["hi"] - r["lo"] > tol + 1e-12:
            errs.append(f"bracket width {r['hi'] - r['lo']:.4g} exceeds tol {tol}")
        if r["hi"] > r["constant_profile_bound"] + 1e-9:
            errs.append(f"hi {r['hi']:.6g} above the constant-profile bound {r['constant_profile_bound']:.6g}")
        return errs

    return check


def check_theorem2(answer, scale):
    (rec,) = _records(answer, "theorem2-check")
    r = rec["results"]
    errs = []
    if r["verdict"] != "CONFIRMS_THEOREM":
        errs.append(f"verdict {r['verdict']}")
    if not r["margin"] > 5.0 * r["error_estimate"]:
        errs.append(f"margin {r['margin']:.4g} not above 5 x err {5 * r['error_estimate']:.3g}")
    return errs


def check_flat_ball(answer, scale):
    (rec,) = _records(answer, "solve")
    mu = rec["results"]["mu_upper"]
    s31 = _sharp(3, 1.0)
    if scale == "smoke":  # the window needs the full grid
        return [] if math.isfinite(mu) else ["mu_upper is not finite"]
    if not (s31 - 1e-3 <= mu <= 1.01 * s31):
        return [f"flat-ball mu_upper {mu:.6f} outside [S31 - 1e-3, 1.01 S31] = [{s31 - 1e-3:.6f}, {1.01 * s31:.6f}]"]
    return []


def check_indefinite(answer, scale):
    # the constant profile is one of the starts and has a negative quotient
    # when lambda > 0 on the full sphere; descent only lowers it
    (rec,) = _records(answer, "solve")
    mu = rec["results"]["mu_upper"]
    if not (math.isfinite(mu) and mu < 0.0):
        return [f"mu_upper {mu} is not a finite negative bound"]
    return []


def check_constants(n, sigma):
    def check(answer, scale):
        (rec,) = _records(answer, "constants")
        r = rec["results"]
        errs = []
        if abs(r["hardy_constant"] - ((n - 2) / 2.0) ** 2) > 1e-12:
            errs.append(f"hardy_constant {r['hardy_constant']} != ((N-2)/2)^2")
        if abs(r["critical_exponent"] - 2.0 * (n - sigma) / (n - 2)) > 1e-12:
            errs.append(f"critical_exponent {r['critical_exponent']} != 2(N-sigma)/(N-2)")
        if not 0.0 < r["hardy_sobolev_constant"] < math.inf:
            errs.append("hardy_sobolev_constant is not a positive number")
        return errs

    return check


MOMENTS = ("dirichlet", "mass2", "hs_mass", "r2_dirichlet", "r2_hs")


def check_moments_finite(tol):
    def check(answer, scale):
        (rec,) = _records(answer, "bubble-moments")
        r = rec["results"]
        errs = []
        for name in MOMENTS:
            v, e = r[name], r[f"{name}_error"]
            if not (isinstance(v, float) and v > 0.0 and 0.0 <= e <= max(tol, 1e-12) * max(1.0, v)):
                errs.append(f"{name} = {v} +- {e} is not a positive value within tol")
        return errs

    return check


def check_moments_log_divergent(answer, scale):
    (rec,) = _records(answer, "bubble-moments")
    r = rec["results"]
    errs = []
    for name in ("mass2", "r2_dirichlet"):
        if r[name] != "infinite" or not r.get(f"{name}_log_slope", 0.0) > 0.0:
            errs.append(f"{name} is not flagged log-divergent at N = 4")
    for name in ("dirichlet", "hs_mass", "r2_hs"):
        if not isinstance(r[name], float):
            errs.append(f"{name} should be finite at N = 4")
    return errs


def check_expansion(n, model):
    def check(answer, scale):
        (rec,) = _records(answer, "expansion-fit")
        r = rec["results"]
        errs = []
        if r["model"] != model:
            errs.append(f"model {r['model']}, expected {model}")
        if n == 5 and abs(r["c0"] / _sharp(5, 1.0) - 1.0) > 0.01:
            errs.append(f"c0 {r['c0']:.6f} not within 1% of S51")
        if len(_table(answer, "expansion_series")) != 5:
            errs.append("expected 5 series rows")
        return errs

    return check


def check_verify(answer, scale):
    recs = _records(answer, "verify")
    failed = [r["parameters"]["check"] for r in recs if r["results"]["pass"] is not True]
    errs = [f"verify check {name} FAIL" for name in failed]
    if len(recs) != 14:
        errs.append(f"expected 14 verify records, got {len(recs)}")
    return errs


# ---------------------------------------------------------------------------
# job lists
# ---------------------------------------------------------------------------

SIZES = {
    "full": {"pencil": 512, "theorem2": 32, "ball": 256, "indefinite": 64},
    "smoke": {"pencil": 64, "theorem2": 8, "ball": 16, "indefinite": 8},
}


def _pencil_jobs(rng, nodes):
    # lambda grid of 9 points with lambda = 0 on it: step h, zero at index k
    h, k = (0.5, 6) if rng is None else (rng.uniform(0.4, 0.6), rng.choice((5, 6, 7)))
    lo, hi = -k * h, (8 - k) * h
    tol = 0.05 if rng is None else rng.uniform(0.04, 0.06)
    curve = ["mu-curve", "--lambda-min", _f(lo), "--lambda-max", _f(hi), "--steps", "9", "--nodes", str(nodes)]
    return [
        Job("mu-curve-S3", curve + ["--dim", "3"], check_mu_curve(True)),
        Job("lambda-star-S3", ["lambda-star", "--dim", "3", "--tol", _f(tol), "--nodes", str(nodes)], check_lambda_star(tol)),
        Job("mu-curve-H3", curve + ["--dim", "3", "--manifold", "hyperbolic-cap"], check_mu_curve(False)),
    ]


def _minimizer_jobs(rng, sizes):
    # narrow ranges: the descent's iteration count, and so the pass time,
    # jumps with lambda; the flat ball (lambda = 0) and the indefinite case
    # (lambda = 0.5) keep the values of their acceptance and README cases
    lam4 = -1.0 if rng is None else rng.uniform(-1.1, -1.0)
    lam5 = -0.5 if rng is None else rng.uniform(-0.6, -0.5)
    t2 = str(sizes["theorem2"])
    return [
        Job(
            "theorem2-S4",
            ["theorem2-check", "--manifold", "sphere", "--dim", "4", "--lambda", _f(lam4), "--sigma", "1", "--nodes", t2],
            check_theorem2,
        ),
        Job(
            "theorem2-S5",
            ["theorem2-check", "--manifold", "sphere", "--dim", "5", "--lambda", _f(lam5), "--sigma", "0.5", "--nodes", t2],
            check_theorem2,
        ),
        Job(
            "solve-flat-ball",
            ["solve", "--sigma", "1", "--lambda", "0", "--manifold", "euclidean-ball", "--dim", "3", "--rmax", "1",
             "--nodes", str(sizes["ball"])],
            check_flat_ball,
        ),
        Job(
            "solve-indefinite-S4",
            ["solve", "--sigma", "1", "--lambda", "0.5", "--dim", "4", "--nodes", str(sizes["indefinite"])],
            check_indefinite,
        ),
    ]


def _quadrature_jobs(rng):
    if rng is None:
        n, sigma, s5, s4, lam5, lam4 = 3, 1.0, 1.0, 1.0, -1.0, -1.0
    else:
        n, sigma = rng.choice((3, 4, 5)), rng.uniform(0.5, 1.5)
        s5, s4 = rng.uniform(0.8, 1.2), rng.uniform(0.8, 1.2)
        lam5, lam4 = rng.uniform(-1.2, -0.8), rng.uniform(-1.2, -0.8)
    return [
        Job("constants", ["constants", "--dim", str(n), "--sigma", _f(sigma)], check_constants(n, sigma)),
        Job(
            "bubble-moments-N5",
            ["bubble-moments", "--dim", "5", "--sigma", _f(s5), "--tol", "1e-10"],
            check_moments_finite(1e-10),
        ),
        Job("bubble-moments-N4", ["bubble-moments", "--dim", "4", "--sigma", _f(s4)], check_moments_log_divergent),
        Job(
            "expansion-fit-S5",
            ["expansion-fit", "--lambda", _f(lam5), "--sigma", "1", "--dim", "5"],
            check_expansion(5, "inverse-square"),
        ),
        Job(
            "expansion-fit-S4",
            ["expansion-fit", "--lambda", _f(lam4), "--sigma", "1", "--dim", "4"],
            check_expansion(4, "log-corrected"),
        ),
        Job("verify-all", ["verify", "--suite", "all"], check_verify),
    ]


def jobs(workload: str, seed: int, index: int, scale: str = "full") -> list[Job]:
    """The job list of pass ``index`` of a run with ``seed``."""
    rng = None if seed == 0 else random.Random(f"{workload}:{seed}:{index}")
    sizes = SIZES[scale]
    if workload == "pencil-threshold":
        return _pencil_jobs(rng, sizes["pencil"])
    if workload == "minimizer-theorem2":
        return _minimizer_jobs(rng, sizes)
    if workload == "cli-quadrature":
        return _quadrature_jobs(rng)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


# ---------------------------------------------------------------------------
# seed-commit answers (seed 0, full scale)
# ---------------------------------------------------------------------------


def reference_values(label, answer):
    """The numbers of one answer that are compared with the seed commit."""
    if label.startswith("mu-curve"):
        return {"mu": [row[1] for row in _table(answer, "mu_curve")]}
    if label.startswith("lambda-star"):
        r = _records(answer, "lambda-star")[0]["results"]
        return {"lo": r["lo"], "hi": r["hi"]}
    if label.startswith(("theorem2", "solve")):
        recs = _records(answer, "theorem2-check") or _records(answer, "solve")
        return {"mu_upper": recs[0]["results"]["mu_upper"]}
    return {}


def check_reference(label, answer, ref):
    """sigma = 2 mu within 1e-9 relative (absolute below |mu| = 1), bracket
    endpoints identical, minimizer upper bounds not looser than 1e-8
    relative."""
    if not ref:
        return []
    got = reference_values(label, answer)
    errs = []
    if "mu" in ref:
        for a, b in zip(got["mu"], ref["mu"]):
            if abs(a - b) > 1e-9 * max(1.0, abs(b)):
                errs.append(f"mu {a!r} differs from the seed commit's {b!r}")
        if len(got["mu"]) != len(ref["mu"]):
            errs.append("curve length differs from the seed commit's")
    for key in ("lo", "hi"):
        if key in ref and got[key] != ref[key]:
            errs.append(f"bracket {key} {got[key]!r} differs from the seed commit's {ref[key]!r}")
    if "mu_upper" in ref and got["mu_upper"] > ref["mu_upper"] + 1e-8 * abs(ref["mu_upper"]):
        errs.append(f"mu_upper {got['mu_upper']!r} looser than the seed commit's {ref['mu_upper']!r}")
    return errs
