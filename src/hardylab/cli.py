"""Command-line front end.

Subcommands: constants, bubble-moments, solve, mu-curve, lambda-star,
theorem2-check, expansion-fit, verify.  Results append to
``records.jsonl`` (plus CSV companions for curves/series) under --out,
the HARDYLAB_OUT environment variable, or ./runs.

Exit codes: 0 success, 1 domain/usage errors, 2 INCONCLUSIVE theorem
check (distinct so harnesses can triage).

In-process callers: ``main`` builds its parser (about 2 ms) on its first
call and reuses it for every later call in the process; nothing is built at
import.  A run with ``--config`` builds a parser of its own, because the
file's values become that parser's defaults.  A one-shot ``hardylab``
command builds one parser either way.

Layout: each subcommand's handler is bound with ``set_defaults`` where the
subcommand is declared in ``build_parser``.  A handler builds one
``{name: (value, provenance tag)}`` mapping, so a result's tag is declared
beside its value, and ``_write`` splits it into the record's results and
provenance and appends the record.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import constants as consts
from .bubble import bubble_moments, bubble_quotient, pohozaev_residual
from .errors import DomainError, SweepRangeError
from .expansion import fit_expansion, quotient_series, theory_coefficient
from .forms import assemble_forms, build_grid
from .hardy_refined import flat_operator_residual, build_log_grid, improved_hardy_eigen
from .manifold import (
    ModelManifold,
    density_expansion_residual,
    euclidean_ball,
    hyperbolic_cap,
    make_manifold,
    scalar_curvature_at_pole,
    unit_sphere,
)
from .minimizer import minimize_quotient
from .records import RunRecord, write_record, write_table
from .eigensolver import smallest_generalized_eigen
from .thresholds import (
    constant_profile_bound,
    default_bc,
    lambda_star_bracket,
    mu_curve,
    strict_inequality_report,
)

_EXIT_OK = 0
_EXIT_ERROR = 1
_EXIT_INCONCLUSIVE = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage text + exit 1 (not argparse's 2)
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(_EXIT_ERROR)


def finite_float(text: str) -> float:
    """A float option's value; NaN and infinities are refused."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _parse_rmax(text: str) -> float:
    if text.strip().lower() == "pi":
        return math.pi
    return finite_float(text)


def _add_manifold_args(p):
    p.add_argument("--manifold", default="sphere", choices=["sphere", "euclidean-ball", "hyperbolic-cap"])
    p.add_argument("--radius", type=finite_float, default=1.0, help="curvature radius a")
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--rmax", type=_parse_rmax, default=None, help="domain radius; accepts the literal token pi")


def _add_grid_args(p, nodes=2048):
    p.add_argument("--nodes", type=int, default=nodes)
    p.add_argument("--grading", type=finite_float, default=2.0)
    p.add_argument("--bc", default="auto", choices=["auto", "dirichlet", "reflected"])


def _add_common(p):
    p.add_argument("--out", type=Path, default=None, help="output directory (default $HARDYLAB_OUT or ./runs)")
    p.add_argument("--config", type=Path, default=None, help="key = value defaults file; flags override")


def _manifold_from(args) -> ModelManifold:
    rmax = args.rmax
    if rmax is None:
        rmax = math.pi * args.radius if args.manifold == "sphere" else 1.0
    return make_manifold(args.manifold, args.radius, args.dim, rmax)


def _bc_from(args, m: ModelManifold) -> str:
    return default_bc(m) if args.bc == "auto" else args.bc


def _warn_unconverged(res) -> None:
    if not res.converged:
        print(f"WARNING: minimizer did not converge (grad_norm={res.grad_norm:.3e})")


def _grid_meta(args):
    return {"nodes": args.nodes, "grading": args.grading, "bc": args.bc}


def _load_config(path: Path) -> dict:
    out = {}
    for line in path.read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"config line without '=': {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        out[key.replace("-", "_")] = value
    return out


def _config_defaults(argv: list[str], subparsers: dict[str, argparse.ArgumentParser]) -> None:
    """Make the ``--config`` file's values the subcommands' defaults.  A key
    names an option as written on the command line (``lambda`` for
    ``--lambda``); each value is typed and checked by that option's argparse
    action, and a key no subcommand has is an error."""
    at = argv.index("--config") + 1
    if at == len(argv):
        raise DomainError("--config needs a path")
    cfg = _load_config(Path(argv[at]))
    used = set()
    for sp in subparsers.values():
        defaults = {}
        for action in sp._actions:
            keys = [o.lstrip("-").replace("-", "_") for o in action.option_strings if action.dest != "help"]
            key = next((k for k in keys if k in cfg), None)
            if key is None:
                continue
            used.add(key)
            value = cfg[key]
            try:
                value = value if action.type is None else action.type(value)
            except (TypeError, ValueError) as exc:
                raise DomainError(f"config value {key} = {value!r}: {exc}") from exc
            if action.choices is not None and value not in action.choices:
                raise DomainError(f"config value {key} = {value!r} is not one of {list(action.choices)}")
            defaults[action.dest] = value
        sp.set_defaults(**defaults)
    unknown = sorted(set(cfg) - used)
    if unknown:
        raise DomainError(f"unknown config key {', '.join(unknown)}: no subcommand has that option")


def build_parser() -> tuple[_Parser, dict[str, argparse.ArgumentParser]]:
    parser = _Parser(prog="hardylab", description=__doc__.partition("\n\nIn-process callers:")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="closed-form sharp constants")
    p.set_defaults(handler=_cmd_constants)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--sigma", type=finite_float, required=True)
    _add_common(p)

    p = sub.add_parser("bubble-moments", help="moment integrals of the concentrating profile")
    p.set_defaults(handler=_cmd_bubble_moments)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--sigma", type=finite_float, required=True)
    p.add_argument("--tol", type=finite_float, default=1e-8)
    _add_common(p)

    p = sub.add_parser("solve", help="discrete quotient minimum at fixed lambda")
    p.set_defaults(handler=_cmd_solve)
    p.add_argument("--sigma", type=finite_float, required=True)
    p.add_argument("--lambda", dest="lam", type=finite_float, default=0.0)
    _add_manifold_args(p)
    _add_grid_args(p)
    _add_common(p)

    p = sub.add_parser("mu-curve", help="sweep of the sigma=2 pencil over lambda")
    p.set_defaults(handler=_cmd_mu_curve)
    p.add_argument("--lambda-min", dest="lambda_min", type=finite_float, required=True)
    p.add_argument("--lambda-max", dest="lambda_max", type=finite_float, required=True)
    p.add_argument("--steps", type=int, default=11)
    _add_manifold_args(p)
    _add_grid_args(p)
    _add_common(p)

    p = sub.add_parser("lambda-star", help="bracket the attainment threshold")
    p.set_defaults(handler=_cmd_lambda_star)
    p.add_argument("--tol", type=finite_float, default=0.05)
    p.add_argument("--delta", type=finite_float, default=None, help="detection margin (default: measured refinement gap)")
    _add_manifold_args(p)
    _add_grid_args(p)
    _add_common(p)

    p = sub.add_parser("theorem2-check", help="strict-inequality report under the curvature criterion")
    p.set_defaults(handler=_cmd_theorem2)
    p.add_argument("--lambda", dest="lam", type=finite_float, required=True)
    p.add_argument("--sigma", type=finite_float, required=True)
    _add_manifold_args(p)
    _add_grid_args(p, nodes=1024)
    _add_common(p)

    p = sub.add_parser("expansion-fit", help="concentrating-family quotient series and second-order fit")
    p.set_defaults(handler=_cmd_expansion_fit)
    p.add_argument("--lambda", dest="lam", type=finite_float, required=True)
    p.add_argument("--sigma", type=finite_float, required=True)
    p.add_argument("--n", default="4,8,16,32,64", help="comma-separated concentration indices")
    p.add_argument("--rcut", type=finite_float, default=None)
    _add_manifold_args(p)
    _add_common(p)

    p = sub.add_parser("verify", help="run an invariant suite, one pass/fail record per check")
    p.set_defaults(handler=_cmd_verify)
    p.add_argument("--suite", default="fast", choices=["fast", "refined-hardy", "all"])
    _add_common(p)

    return parser, dict(sub.choices)


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------

def _write(out, command, params, tagged, grid=None, diagnostics=None) -> dict:
    """Append the record of ``tagged`` ({name: (value, provenance tag)})
    and return its results ({name: value})."""
    results = {k: v for k, (v, _) in tagged.items()}
    rec = RunRecord(command, params, results, {k: tag for k, (_, tag) in tagged.items()}, grid=grid or {})
    rec.diagnostics.update(diagnostics or {})
    write_record(rec, out)
    return results


def _print(results: dict) -> None:
    print("\n".join(f"{k} = {v}" for k, v in results.items()))


def _cmd_constants(args, out):
    n, s = args.dim, args.sigma
    values = {
        "hardy_constant": consts.hardy_constant(n),
        "sobolev_constant": consts.sobolev_constant(n),
        "critical_exponent": consts.critical_exponent(s, n),
        "sphere_area_nm1": consts.sphere_area(n - 1),
    }
    if s < 2.0:
        values["hardy_sobolev_constant"] = consts.hardy_sobolev_constant(n, s)
    results = _write(out, "constants", {"dim": n, "sigma": s}, {k: (v, "closed-form") for k, v in values.items()})
    for k, v in results.items():
        print(f"{k} = {v:.12g}")
    return _EXIT_OK


def _cmd_bubble_moments(args, out):
    m = bubble_moments(args.dim, args.sigma, tol=args.tol)
    values = {}
    for name in ("dirichlet", "mass2", "hs_mass", "r2_dirichlet", "r2_hs"):
        mv = getattr(m, name)
        values[name] = mv.value if mv.finite else "infinite"
        values[f"{name}_error"] = mv.abs_error if mv.finite else "infinite"
        if not mv.finite:
            values[f"{name}_truncated"] = mv.truncated_value
            values[f"{name}_log_slope"] = mv.log_slope
            values[f"{name}_truncation_radius"] = mv.truncation_radius
    params = {"dim": args.dim, "sigma": args.sigma, "tol": args.tol}
    _print(_write(out, "bubble-moments", params, {k: (v, "quadrature") for k, v in values.items()}))
    return _EXIT_OK


def _cmd_solve(args, out):
    s = float(args.sigma)
    if not (0.0 < s <= 2.0):
        raise DomainError(f"solve requires sigma in (0, 2], got {s}")
    m = _manifold_from(args)
    bc = _bc_from(args, m)
    grid = build_grid(m.r_max, args.nodes, args.grading, bc)
    forms = assemble_forms(grid, m, s)
    params = {"sigma": s, "lambda": args.lam, "manifold": m.kind, "radius": m.a, "dim": m.N, "rmax": m.r_max}
    if s == 2.0:
        res = smallest_generalized_eigen(forms, args.lam)
        tagged = {k: (getattr(res, k), "eigensolve") for k in ("mu", "concentration", "residual", "iterations")}
        _print(_write(out, "solve", params, tagged, grid=_grid_meta(args)))
        return _EXIT_OK
    res = minimize_quotient(forms, args.lam)
    keys = ("mu_upper", "concentration", "grad_norm", "iterations", "iterations_total")
    tagged = {k: (getattr(res, k), "minimize") for k in keys}
    tagged.update(init=(res.init_tag, "minimize"), converged=(res.converged, "minimize"))
    tagged["radial_upper_bound_only"] = (True, "artifact-derived")
    diagnostics = {"evaluations": res.evaluations, "solves": res.solves}
    _print(_write(out, "solve", params, tagged, grid=_grid_meta(args), diagnostics=diagnostics))
    _warn_unconverged(res)
    return _EXIT_OK


def _cmd_mu_curve(args, out):
    m = _manifold_from(args)
    bc = _bc_from(args, m)
    if args.steps < 1:
        raise DomainError(f"--steps must be at least 1, got {args.steps}")
    lams = np.linspace(args.lambda_min, args.lambda_max, args.steps)
    curve = mu_curve(m, lams, M=args.nodes, gamma=args.grading, bc=bc)
    rows = list(zip(curve.lambdas, curve.mus, curve.concentrations))
    write_table("mu_curve", ["lambda", "mu", "concentration"], rows, out)
    params = {"manifold": m.kind, "dim": m.N, "lambda_min": args.lambda_min, "lambda_max": args.lambda_max, "steps": args.steps}
    tagged = {
        "mu_first": (float(curve.mus[0]), "eigensolve"),
        "mu_last": (float(curve.mus[-1]), "eigensolve"),
        "rows": (len(rows), "eigensolve"),
    }
    _write(out, "mu-curve", params, tagged, grid=_grid_meta(args))
    for lam, mu, c in rows:
        f = "f" if abs(lam) <= 1e6 else "e"  # no 300-digit rows at huge lambda
        print(f"lambda={lam:+.6{f}} mu={mu:.10{f}} concentration={c:.4f}")
    return _EXIT_OK


def _cmd_lambda_star(args, out):
    m = _manifold_from(args)
    bc = _bc_from(args, m)
    br = lambda_star_bracket(m, tol_lambda=args.tol, detection_delta=args.delta, M=args.nodes, gamma=args.grading, bc=bc)
    tagged = {k: (getattr(br, k), "artifact-derived") for k in ("lo", "hi", "detection_delta", "mu_lo", "mu_hi")}
    tagged["cap"] = (br.cap, "closed-form")
    tagged["constant_profile_bound"] = (constant_profile_bound(m), "quadrature")
    tagged["hi_overestimates_threshold"] = (True, "artifact-derived")
    params = {"manifold": m.kind, "dim": m.N, "tol": args.tol}
    _print(_write(out, "lambda-star", params, tagged, grid=_grid_meta(args)))
    return _EXIT_OK


def _cmd_theorem2(args, out):
    m = _manifold_from(args)
    bc = _bc_from(args, m)
    rep = strict_inequality_report(m, args.lam, args.sigma, M=args.nodes, gamma=args.grading, bc=bc)
    tagged = {
        "mu_upper": (rep.mu_upper, "minimize"),
        "sharp_constant": (rep.sharp_constant, "closed-form"),
        "margin": (rep.margin, "artifact-derived"),
        "error_estimate": (rep.error_estimate, "artifact-derived"),
        "criterion_holds": (rep.criterion_holds, "closed-form"),
        "scalar_curvature_at_pole": (scalar_curvature_at_pole(m), "closed-form"),
        "lambda_negative": (rep.lambda_negative, "artifact-derived"),
        "within_theorem_dims": (rep.within_theorem_dims, "artifact-derived"),
        "verdict": (rep.verdict, "artifact-derived"),
    }
    diagnostics = {}
    for grid, res in (("coarse", rep.coarse), ("fine", rep.fine)):
        for key in ("converged", "iterations", "iterations_total"):
            tagged[f"{grid}_{key}"] = (getattr(res, key), "minimize")
        diagnostics.update({f"{grid}_evaluations": res.evaluations, f"{grid}_solves": res.solves})
    diagnostics["fine_starts"] = len(rep.fine.finals)
    params = {"manifold": m.kind, "dim": m.N, "lambda": args.lam, "sigma": args.sigma}
    _print(_write(out, "theorem2-check", params, tagged, grid=_grid_meta(args), diagnostics=diagnostics))
    _warn_unconverged(rep.coarse)
    _warn_unconverged(rep.fine)
    return _EXIT_OK if rep.verdict == "CONFIRMS_THEOREM" else _EXIT_INCONCLUSIVE


def _cmd_expansion_fit(args, out):
    m = _manifold_from(args)
    try:
        n_list = [finite_float(tok) for tok in str(args.n).split(",") if tok.strip()]
    except ValueError as exc:
        raise DomainError(f"--n: {exc}") from exc
    series = quotient_series(m, args.lam, args.sigma, n_list, r_cut=args.rcut)
    fit = fit_expansion(series)
    try:
        theory = theory_coefficient(m, args.lam, args.sigma)
    except DomainError:
        theory = None
    rows = list(zip(series.n, series.energy, series.denom, series.quotient))
    write_table("expansion_series", ["n", "energy", "denom", "quotient"], rows, out)
    tagged = {k: (getattr(fit, k), "fit") for k in ("model", "c0", "c1", "c2", "rms_residual")}
    tagged["sharp_constant"] = (consts.hardy_sobolev_constant(m.N, args.sigma), "closed-form")
    if theory is not None:
        tagged["theory_coefficient"] = (theory, "quadrature")
    params = {"manifold": m.kind, "dim": m.N, "lambda": args.lam, "sigma": args.sigma, "n": args.n, "rcut": series.r_cut}
    results = _write(out, "expansion-fit", params, tagged, grid={"quadrature": "dedicated panels, refined ~1/n at the pole"})
    for n, _, _, q in rows:
        print(f"n={n:6.0f} Q={q:.10f}")
    _print(results)
    return _EXIT_OK


def _verify_checks(suite: str):
    checks = []
    if suite in ("fast", "all"):
        checks += [
            ("sphere_area_recursion", lambda: max(
                abs(consts.sphere_area(n) - 2 * math.pi * consts.sphere_area(n - 2) / (n - 1))
                for n in range(3, 12)
            ) < 1e-12),
            ("lieb_matches_bubble_quotient_31", lambda: abs(
                bubble_quotient(3, 1.0) / consts.hardy_sobolev_constant(3, 1.0) - 1
            ) < 1e-6),
            ("sigma_continuity_at_zero", lambda: abs(
                consts.hardy_sobolev_constant(4, 1e-6) / consts.sobolev_constant(4) - 1
            ) < 1e-5),
            ("density_expansion_sphere", lambda: density_expansion_residual(unit_sphere(3)) < 1e-4),
            ("density_expansion_flat", lambda: density_expansion_residual(euclidean_ball(3)) < 1e-12),
            ("density_expansion_hyperbolic", lambda: density_expansion_residual(hyperbolic_cap(3)) < 1e-4),
            ("laplacian_ball_pi_squared", _check_laplacian),
            ("sphere_constant_mode_mu0", _check_constant_mode),
        ]
    if suite in ("refined-hardy", "all"):
        checks += [
            ("flat_residual_order_a_minus1", lambda: _residual_order(-1.0, 3) > 1.9),
            ("flat_residual_order_a_half", lambda: _residual_order(0.5, 4) > 1.9),
            ("improved_hardy_floor_n3", lambda: improved_hardy_eigen(3, 0.1, M=1024).value >= 0.99),
            ("improved_hardy_floor_n4", lambda: improved_hardy_eigen(4, 0.1, M=1024).value >= 0.99),
        ]
    if suite == "all":
        checks += [
            ("pohozaev_51", lambda: pohozaev_residual(5, 1.0) < 1e-8),
            ("bubble_moment_flags_n4", lambda: not bubble_moments(4, 1.0).mass2.finite),
        ]
    return checks


def _residual_order(a, N):
    r1 = flat_operator_residual(a, 0.0, N, build_log_grid(1e-4, 0.5, 512))
    r2 = flat_operator_residual(a, 0.0, N, build_log_grid(1e-4, 0.5, 1024))
    return math.log2(r1 / r2)


def _check_laplacian():
    ball = euclidean_ball(3, 1.0)
    forms = assemble_forms(build_grid(1.0, 512, 2.0, "dirichlet"), ball, 2.0)
    res = smallest_generalized_eigen(forms, 0.0, denominator="mass")
    return abs(res.mu - math.pi**2) < 1e-3


def _check_constant_mode():
    s3 = unit_sphere(3)
    forms = assemble_forms(build_grid(math.pi, 256, 2.0, "reflected"), s3, 2.0)
    res = smallest_generalized_eigen(forms, 0.0)
    spread = np.max(res.profile) - np.min(res.profile)
    return abs(res.mu) < 1e-8 and spread < 1e-6 * np.max(np.abs(res.profile))


def _cmd_verify(args, out):
    checks = _verify_checks(args.suite)
    all_ok = True
    for name, fn in checks:
        try:
            ok = bool(fn())
        except Exception as exc:  # a crashed invariant is a failed invariant
            ok = False
            print(f"{name}: ERROR ({exc})")
        _write(out, "verify", {"suite": args.suite, "check": name}, {"pass": (ok, "artifact-derived")})
        print(f"{name}: {'PASS' if ok else 'FAIL'}")
        if not ok:
            all_ok = False
    return _EXIT_OK if all_ok else _EXIT_ERROR


@functools.cache
def _shared_parser() -> _Parser:
    """The parser of every call of ``main`` without ``--config``."""
    return build_parser()[0]


def main(argv=None) -> int:
    # pre-scan for --config so its values become defaults that flags override
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--config" in argv:
        parser, subparsers = build_parser()  # its own: the shared one keeps its defaults
        try:
            _config_defaults(argv, subparsers)
        except (OSError, DomainError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return _EXIT_ERROR
    else:
        parser = _shared_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args, args.out)
    except (DomainError, SweepRangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
