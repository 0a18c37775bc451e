import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from hardylab import _kernels, cli
from hardylab.cli import main
from hardylab.forms import assemble_forms, build_grid
from hardylab.manifold import unit_sphere
from hardylab.minimizer import minimize_quotient
from hardylab.thresholds import strict_inequality_report


def run(args, tmp_path, extra=()):
    return main([*args, "--out", str(tmp_path / "runs"), *extra])


def _forms(dim, nodes):
    m = unit_sphere(dim)
    return assemble_forms(build_grid(m.r_max, nodes, 2.0, "reflected"), m, 1.0)


def read_records(tmp_path):
    path = tmp_path / "runs" / "records.jsonl"
    return [json.loads(line) for line in path.read_text().splitlines()]


def test_constants_roundtrip(tmp_path, capsys):
    assert run(["constants", "--dim", "3", "--sigma", "1"], tmp_path) == 0
    recs = read_records(tmp_path)
    assert recs[0]["command"] == "constants"
    assert recs[0]["results"]["hardy_sobolev_constant"] == pytest.approx(2.8944050182, rel=1e-9)
    assert all(k in recs[0]["provenance"] for k in recs[0]["results"])


def test_record_carries_diagnostics(tmp_path):
    # beside the results, outside the provenance rule
    assert run(["constants", "--dim", "3", "--sigma", "1"], tmp_path) == 0
    rec = read_records(tmp_path)[0]
    assert rec["diagnostics"] == {"kernel_backend": _kernels.BACKEND, "numpy": np.__version__}
    assert set(rec["provenance"]) == set(rec["results"])


def test_solve_sigma_out_of_range(tmp_path):
    assert run(["solve", "--sigma", "3"], tmp_path) == 1


def test_unknown_flag_exits_1(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["constants", "--dim", "3", "--sigma", "1", "--frobnicate"])
    assert exc.value.code == 1


def test_solve_sigma2_record(tmp_path):
    code = run(
        ["solve", "--sigma", "2", "--lambda", "-1", "--dim", "3", "--nodes", "256"], tmp_path
    )
    assert code == 0
    rec = read_records(tmp_path)[-1]
    assert rec["results"]["mu"] < 0.3
    assert rec["provenance"]["mu"] == "eigensolve"


def test_solve_sigma1_record(tmp_path):
    code = run(
        ["solve", "--sigma", "1", "--lambda", "-1", "--dim", "4", "--nodes", "128"], tmp_path
    )
    assert code == 0
    rec = read_records(tmp_path)[-1]
    assert rec["results"]["mu_upper"] < 5.3
    assert rec["results"]["radial_upper_bound_only"] is True


def test_readme_solve_example_converges(tmp_path, capsys):
    code = run(["solve", "--sigma", "1", "--lambda", "-1", "--dim", "4", "--nodes", "1024"], tmp_path)
    assert code == 0
    assert read_records(tmp_path)[-1]["results"]["converged"] is True
    assert "WARNING" not in capsys.readouterr().out


def test_flat_ball_solve_converges_without_warning(tmp_path, capsys):
    # the concentrating case that exhausted the step budget before mixing
    args = ["solve", "--sigma", "1", "--lambda", "0", "--manifold", "euclidean-ball", "--dim", "3", "--rmax", "1"]
    assert run([*args, "--nodes", "1024"], tmp_path) == 0
    assert "WARNING:" not in capsys.readouterr().out
    res = read_records(tmp_path)[-1]["results"]
    assert res["converged"] is True
    assert res["iterations"] <= res["iterations_total"] <= 4 * 800


def test_records_count_iterations_over_all_starts(tmp_path):
    assert run(["solve", "--sigma", "1", "--lambda", "-1", "--dim", "4", "--nodes", "64"], tmp_path) == 0
    rec = read_records(tmp_path)[-1]
    m = minimize_quotient(_forms(4, 64), -1.0)
    assert rec["results"]["iterations_total"] == m.iterations_total
    assert rec["provenance"]["iterations_total"] == "minimize"
    args = ["theorem2-check", "--dim", "4", "--lambda", "-1", "--sigma", "1", "--nodes", "32"]
    run(args, tmp_path)
    rec = read_records(tmp_path)[-1]
    rep = strict_inequality_report(unit_sphere(4), -1.0, 1.0, M=32)
    for grid in ("coarse", "fine"):
        assert rec["results"][f"{grid}_iterations_total"] == getattr(rep, grid).iterations_total
        assert rec["provenance"][f"{grid}_iterations_total"] == "minimize"


def test_records_count_evaluations_and_solves_as_diagnostics(tmp_path):
    # beside the results: no provenance tag, nothing in results
    assert run(["solve", "--sigma", "1", "--lambda", "-1", "--dim", "4", "--nodes", "64"], tmp_path) == 0
    rec = read_records(tmp_path)[-1]
    m = minimize_quotient(_forms(4, 64), -1.0)
    assert (rec["diagnostics"]["evaluations"], rec["diagnostics"]["solves"]) == (m.evaluations, m.solves)
    assert not {"evaluations", "solves"} & (set(rec["results"]) | set(rec["provenance"]))
    args = ["theorem2-check", "--dim", "4", "--lambda", "-1", "--sigma", "1", "--nodes", "32"]
    run(args, tmp_path)
    rec = read_records(tmp_path)[-1]
    rep = strict_inequality_report(unit_sphere(4), -1.0, 1.0, M=32)
    for grid in ("coarse", "fine"):
        m = getattr(rep, grid)
        assert rec["diagnostics"][f"{grid}_evaluations"] == m.evaluations
        assert rec["diagnostics"][f"{grid}_solves"] == m.solves
        assert f"{grid}_solves" not in rec["results"]
    # the fine grid starts warm, from the one coarse basin
    assert rec["diagnostics"]["fine_starts"] == len(rep.fine.finals) == 1
    assert "fine_starts" not in rec["results"]
    assert set(rec["provenance"]) == set(rec["results"])


def test_unconverged_minimizer_is_reported(tmp_path, capsys, monkeypatch):
    import hardylab.cli
    import hardylab.thresholds

    def two_steps(forms, lam, **kwargs):
        return minimize_quotient(forms, lam, max_iters=2)

    monkeypatch.setattr(hardylab.cli, "minimize_quotient", two_steps)
    monkeypatch.setattr(hardylab.thresholds, "minimize_quotient", two_steps)
    warning = "WARNING: minimizer did not converge (grad_norm="
    run(["solve", "--sigma", "1", "--lambda", "-1", "--dim", "4", "--nodes", "64"], tmp_path)
    assert capsys.readouterr().out.count(warning) == 1
    run(["theorem2-check", "--dim", "4", "--lambda", "-1", "--sigma", "1", "--nodes", "32"], tmp_path)
    assert capsys.readouterr().out.count(warning) == 2
    rec = read_records(tmp_path)[-1]
    for grid in ("coarse", "fine"):
        assert rec["results"][f"{grid}_converged"] is False
        assert rec["results"][f"{grid}_iterations"] == 2
        assert rec["provenance"][f"{grid}_converged"] == "minimize"


def test_mu_curve_csv(tmp_path):
    run(
        ["mu-curve", "--lambda-min", "-1", "--lambda-max", "1", "--steps", "3", "--dim", "3", "--nodes", "128"],
        tmp_path,
    )
    csv_path = tmp_path / "runs" / "mu_curve.csv"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "lambda,mu,concentration"
    assert len(lines) == 4
    # a second run appends without rewriting the header
    run(
        ["mu-curve", "--lambda-min", "-1", "--lambda-max", "1", "--steps", "3", "--dim", "3", "--nodes", "128"],
        tmp_path,
    )
    assert len(csv_path.read_text().splitlines()) == 7


def test_mu_curve_rows_print_huge_lambda_in_exponent_form(tmp_path, capsys):
    # rows with |lambda| <= 1e6 keep the fixed-point form; beyond it a row
    # is exponent form, not a ~300-digit decimal
    for lo, hi in (("-1e6", "2e6"), ("1e300", "2e300")):
        args = ["mu-curve", f"--lambda-min={lo}", "--lambda-max", hi, "--steps", "4", "--dim", "3", "--nodes", "64"]
        assert run(args, tmp_path) == 0
    rows = (tmp_path / "runs" / "mu_curve.csv").read_text().splitlines()[1:]
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == len(rows) == 8
    for line, row in zip(printed, rows):
        lam, mu, conc = (float(v) for v in row.split(","))
        fixed = f"lambda={lam:+.6f} mu={mu:.10f} concentration={conc:.4f}"
        expo = f"lambda={lam:+.6e} mu={mu:.10e} concentration={conc:.4f}"
        assert line == (fixed if abs(lam) <= 1e6 else expo)
        assert len(line) < 80
    assert printed[0] == "lambda=-1000000.000000 mu=0.6527371998 concentration=1.0000"
    assert printed[3].startswith("lambda=+2.000000e+06 mu=-1.6094775506e+07 ")


def test_records_append(tmp_path):
    run(["constants", "--dim", "4", "--sigma", "0.5"], tmp_path)
    run(["constants", "--dim", "5", "--sigma", "1.5"], tmp_path)
    recs = read_records(tmp_path)
    assert len(recs) == 2


def test_theorem2_check_exit_codes(tmp_path):
    ok = run(
        ["theorem2-check", "--manifold", "sphere", "--radius", "1", "--dim", "4",
         "--lambda", "-1", "--sigma", "1", "--nodes", "256"],
        tmp_path,
    )
    assert ok == 0
    inconclusive = run(
        ["theorem2-check", "--manifold", "euclidean-ball", "--dim", "4",
         "--lambda", "0", "--sigma", "1", "--nodes", "128", "--rmax", "1"],
        tmp_path,
    )
    assert inconclusive == 2


def test_rmax_pi_token(tmp_path):
    code = run(
        ["solve", "--sigma", "2", "--lambda", "0", "--manifold", "sphere", "--rmax", "pi",
         "--dim", "3", "--nodes", "128"],
        tmp_path,
    )
    assert code == 0
    rec = read_records(tmp_path)[-1]
    assert rec["parameters"]["rmax"] == pytest.approx(math.pi)
    assert abs(rec["results"]["mu"]) < 1e-8  # full sphere keeps the constant mode


def test_expansion_fit_outputs(tmp_path):
    code = run(
        ["expansion-fit", "--lambda", "-1", "--sigma", "1", "--dim", "5",
         "--n", "4,8,16,32"],
        tmp_path,
    )
    assert code == 0
    rec = read_records(tmp_path)[-1]
    assert rec["results"]["model"] == "inverse-square"
    assert (tmp_path / "runs" / "expansion_series.csv").exists()


def test_config_file_defaults(tmp_path):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("dim = 4\nsigma = 0.5\n# comment\n")
    code = main(["constants", "--dim", "4", "--sigma", "0.5", "--out", str(tmp_path / "runs")])
    assert code == 0
    base = read_records(tmp_path)[-1]["results"]["hardy_sobolev_constant"]
    code = main(["constants", "--dim", "3", "--sigma", "1", "--config", str(cfg), "--out", str(tmp_path / "runs")])
    assert code == 0
    # flags override config
    got = read_records(tmp_path)[-1]["results"]["hardy_sobolev_constant"]
    assert got == pytest.approx(2.8944050182, rel=1e-9)
    assert base == pytest.approx(7.7500223341, rel=1e-9)


def test_config_out_directory(tmp_path):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text(f"out = {tmp_path / 'DIR'}\n")
    assert main(["constants", "--dim", "3", "--sigma", "1", "--config", str(cfg)]) == 0
    assert (tmp_path / "DIR" / "records.jsonl").exists()


@pytest.mark.parametrize(
    "text,args",
    [
        ("dim = three\n", ["constants", "--sigma", "1"]),  # not an int
        ("suite = foo\n", ["verify"]),  # not one of the choices
        ("lambda = nan\n", ["solve", "--sigma", "1"]),  # not finite
    ],
)
def test_config_bad_value_exits_1(tmp_path, capsys, text, args):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text(text)
    assert main([*args, "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert f"error: config value {text.split(' =')[0]} = " in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["mu-curve", "--lambda-min", "-1", "--lambda-max", "0", "--steps", "0", "--nodes", "64"],
        ["mu-curve", "--lambda-min", "-1", "--lambda-max", "0", "--steps", "-2", "--nodes", "64"],
        ["expansion-fit", "--lambda", "-1", "--sigma", "1", "--dim", "5", "--n", "4,x,16,32"],
        ["expansion-fit", "--lambda", "-1", "--sigma", "1", "--dim", "5", "--n", "4,8,16,nan"],
        ["solve", "--sigma", "2", "--lambda", "nan", "--nodes", "64"],
        ["solve", "--sigma", "2", "--rmax", "nan", "--nodes", "64"],
        ["solve", "--sigma", "1", "--lambda", "nan", "--nodes", "64"],
        ["solve", "--sigma", "inf", "--nodes", "64"],
        ["lambda-star", "--dim", "3", "--tol", "nan", "--nodes", "64"],
        ["lambda-star", "--dim", "3", "--delta", "nan", "--nodes", "64"],
        ["lambda-star", "--dim", "3", "--delta", "-0.01", "--nodes", "64"],
        ["expansion-fit", "--lambda", "-1", "--sigma", "1", "--dim", "5", "--rcut", "0"],
        ["theorem2-check", "--dim", "4", "--lambda", "1e308", "--sigma", "1", "--nodes", "16"],
        ["solve", "--sigma", "2", "--lambda", "1e308", "--nodes", "64"],
        ["mu-curve", "--lambda-min", "-1", "--lambda-max", "1e308", "--nodes", "64"],
        # K - lambda*Mass is finite, the energy of the constant start is not
        ["solve", "--sigma", "1", "--dim", "4", "--lambda", "1e308", "--nodes", "64"],
        ["theorem2-check", "--dim", "4", "--lambda", "1e308", "--sigma", "1", "--nodes", "64"],
    ],
)
def test_bad_numeric_input_is_an_error(tmp_path, capsys, argv):
    # exit 1 with an error: line, no traceback and no record
    try:
        code = run(argv, tmp_path)
    except SystemExit as exc:  # argparse rejects the value itself
        code = exc.code
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "runs" / "records.jsonl").exists()


_CLOSED, _QUAD, _EIG, _MIN, _FIT, _ART = (
    "closed-form", "quadrature", "eigensolve", "minimize", "fit", "artifact-derived"
)


# every subcommand's {result key: provenance tag} map, on small grids
_TAGGED_RUNS = [
    (
        ["constants", "--dim", "3", "--sigma", "1"],
        dict.fromkeys(
            ["hardy_constant", "sobolev_constant", "critical_exponent", "sphere_area_nm1", "hardy_sobolev_constant"],
            _CLOSED,
        ),
    ),
    (
        ["bubble-moments", "--dim", "4", "--sigma", "1"],  # mass2 and r2_dirichlet diverge at N = 4
        dict.fromkeys(
            [f"{name}{suffix}" for name in ("dirichlet", "hs_mass", "r2_hs") for suffix in ("", "_error")]
            + [
                f"{name}{suffix}"
                for name in ("mass2", "r2_dirichlet")
                for suffix in ("", "_error", "_truncated", "_log_slope", "_truncation_radius")
            ],
            _QUAD,
        ),
    ),
    (
        ["solve", "--sigma", "1", "--lambda", "-1", "--dim", "4", "--nodes", "64"],
        {
            **dict.fromkeys(
                ["mu_upper", "concentration", "grad_norm", "iterations", "iterations_total", "init", "converged"],
                _MIN,
            ),
            "radial_upper_bound_only": _ART,
        },
    ),
    (
        ["mu-curve", "--lambda-min", "-1", "--lambda-max", "0", "--steps", "2", "--dim", "3", "--nodes", "64"],
        dict.fromkeys(["mu_first", "mu_last", "rows"], _EIG),
    ),
    (
        ["lambda-star", "--dim", "3", "--nodes", "64"],
        {
            **dict.fromkeys(["lo", "hi", "detection_delta", "mu_lo", "mu_hi", "hi_overestimates_threshold"], _ART),
            "cap": _CLOSED,
            "constant_profile_bound": _QUAD,
        },
    ),
    (
        ["theorem2-check", "--dim", "4", "--lambda", "-1", "--sigma", "1", "--nodes", "64"],
        {
            "mu_upper": _MIN,
            "sharp_constant": _CLOSED,
            "margin": _ART,
            "error_estimate": _ART,
            "criterion_holds": _CLOSED,
            "scalar_curvature_at_pole": _CLOSED,
            "lambda_negative": _ART,
            "within_theorem_dims": _ART,
            "verdict": _ART,
            **{f"{grid}_{key}": _MIN for grid in ("coarse", "fine") for key in ("converged", "iterations", "iterations_total")},
        },
    ),
    (
        ["expansion-fit", "--lambda", "-1", "--sigma", "1", "--dim", "5", "--n", "4,8,16,32"],
        {
            **dict.fromkeys(["model", "c0", "c1", "c2", "rms_residual"], _FIT),
            "sharp_constant": _CLOSED,
            "theory_coefficient": _QUAD,
        },
    ),
    (["verify", "--suite", "fast"], {"pass": _ART}),
]


@pytest.mark.parametrize("argv,provenance", _TAGGED_RUNS, ids=[argv[0] for argv, _ in _TAGGED_RUNS])
def test_every_subcommand_tags_each_result(tmp_path, argv, provenance):
    assert run(argv, tmp_path) == 0
    recs = read_records(tmp_path)
    assert recs and all(r["command"] == argv[0] for r in recs)
    for rec in recs:
        assert rec["provenance"] == provenance
        assert set(rec["results"]) == set(provenance)


def test_config_keys_are_option_names(tmp_path):
    # --lambda stores to the destination lam; the file names the option
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("lambda = -1\n")
    assert main(["solve", "--sigma", "2", "--dim", "3", "--nodes", "64", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    rec = json.loads((tmp_path / "records.jsonl").read_text().splitlines()[-1])
    assert rec["parameters"]["lambda"] == -1.0
    assert rec["results"]["mu"] == pytest.approx(0.3113462892, rel=1e-8)


def test_config_unknown_key_exits_1(tmp_path, capsys):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("nodez = 64\n")
    assert main(["solve", "--sigma", "2", "--dim", "3", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert "error: unknown config key nodez" in capsys.readouterr().err


def test_config_flag_without_path_exits_1(capsys):
    assert main(["constants", "--dim", "3", "--sigma", "1", "--config"]) == 1
    assert "error: --config needs a path" in capsys.readouterr().err


def test_determinism(tmp_path):
    args = ["solve", "--sigma", "1", "--lambda", "-1", "--dim", "4", "--nodes", "128"]
    run(args, tmp_path)
    run(args, tmp_path)
    first, second = read_records(tmp_path)[-2:]
    assert first["results"] == second["results"]


def test_verify_fast_suite(tmp_path):
    assert run(["verify", "--suite", "fast"], tmp_path) == 0
    recs = read_records(tmp_path)
    assert all(r["command"] == "verify" for r in recs)
    assert all(r["results"]["pass"] is True for r in recs)


def test_config_run_leaves_the_shared_parser_alone(tmp_path):
    cli._shared_parser.cache_clear()  # as in a fresh process
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("nodes = 64\n")
    solve = ["solve", "--sigma", "2", "--dim", "3"]
    default = cli.build_parser()[1]["solve"].get_default("nodes")
    assert default != 64
    for _ in range(2):  # config first, then again once the shared parser exists
        assert run([*solve, "--config", str(cfg)], tmp_path) == 0
        assert read_records(tmp_path)[-1]["grid"]["nodes"] == 64
        assert run(solve, tmp_path) == 0
        assert read_records(tmp_path)[-1]["grid"]["nodes"] == default


def test_bad_argument_after_a_good_call_exits_1(tmp_path, capsys):
    assert run(["constants", "--dim", "3", "--sigma", "1"], tmp_path) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run(["constants", "--dim", "3", "--sigma", "1", "--frobnicate"], tmp_path)
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err
    assert run(["constants", "--dim", "4", "--sigma", "1"], tmp_path) == 0


def test_import_builds_no_parser():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *args, **kwargs):\n"
        "    built.append(self)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "import hardylab.cli\n"
        "print(len(built), hardylab.cli._shared_parser.cache_info().currsize)\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.split() == ["0", "0"]


def test_e2e_benchmark_script_imports(monkeypatch):
    # the end-to-end benchmark reads the cli-quadrature job list from
    # perfbench/ by name; loading it (without starting a worker) catches a
    # stale import, and every command it times must parse
    import importlib.util

    path = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks", "bench_e2e.py")
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends the checkout
    spec = importlib.util.spec_from_file_location("bench_e2e", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    assert len(bench.QUADRATURE) == 6 and callable(bench.main)
    for _, argv in bench.COMMANDS:
        cli.build_parser()[0].parse_args(argv)
