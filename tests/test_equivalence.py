"""``benchmarks/equivalence.py``, run on a short command list through its
Python API: a tree is identical to itself on both backends, and a copy with
one perturbed constant is flagged, in the results or in the kernel counts
alone, or passes where it moves only barred values within their bars.  On
its full command list, this checkout's two backends give the same
answers."""

import importlib.util
import shutil
import sys
from pathlib import Path

import pytest

from hardylab import _kernels

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")
COMMANDS = [
    ["solve", "--sigma", "2", "--lambda", "-1", "--dim", "3", "--nodes", "64"],
    ["constants", "--dim", "3", "--sigma", "1"],
    ["solve", "--sigma", "3"],  # exits 1
]


@pytest.fixture(scope="module")
def equivalence():
    path = sys.path[:]  # the script prepends the checkout and benchmarks/
    try:
        spec = importlib.util.spec_from_file_location("equivalence", ROOT / "benchmarks" / "equivalence.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
    return module


def _perturbed(tmp_path, old, new):
    """A copy of the source tree with one constant of the eigensolver changed."""
    tree = tmp_path / "src"
    shutil.copytree(SRC, tree, ignore=shutil.ignore_patterns("__pycache__"))
    module = tree / "hardylab" / "eigensolver.py"
    text = module.read_text()
    assert text.count(old) == 1
    module.write_text(text.replace(old, new))
    return str(tree)


def test_default_commands_cover_readme_and_every_workload_seed(equivalence):
    argvs = equivalence.commands()
    assert argvs[: len(equivalence.README)] == [list(a) for a in equivalence.README]
    assert len(argvs) == len({tuple(a) for a in argvs}) > len(equivalence.README) + 3 * 4


def test_a_tree_is_identical_to_itself(equivalence):
    report = equivalence.compare(SRC, SRC, COMMANDS)
    assert set(report) == {"lapack", "python"}
    assert all(r == {"commands": 3, "results": [], "diagnostics": []} for r in report.values())
    assert equivalence.identical(report)


def test_a_perturbed_result_is_flagged(equivalence, tmp_path):
    # a wider concentration core moves a printed and recorded result, not a count
    tree = _perturbed(tmp_path, "_CORE = 0.01 ", "_CORE = 0.02 ")
    report = equivalence.compare(SRC, tree, COMMANDS, backends=("lapack",))
    assert report["lapack"]["results"] == [(COMMANDS[0], ["records.jsonl", "stdout"])]
    assert report["lapack"]["diagnostics"] == []
    assert not equivalence.identical(report)


def test_a_perturbed_count_is_reported_apart(equivalence, tmp_path):
    # probes a hundred times further out cost tests, never bits
    tree = _perturbed(tmp_path, "_PROBE = 2e-11 ", "_PROBE = 2e-9 ")
    report = equivalence.compare(SRC, tree, COMMANDS, backends=("lapack",))
    assert report["lapack"]["results"] == []
    assert report["lapack"]["diagnostics"] == [(COMMANDS[0], ["diagnostics"])]
    assert not equivalence.identical(report)


@pytest.mark.skipif(_kernels.BACKEND != "lapack", reason="numpy bundles no LAPACK dpttrf here")
def test_both_backends_give_the_same_answers(equivalence):
    # one recurrence on both: the same results and the same kernel counts,
    # with only the backend stamp apart
    argvs = equivalence.commands()
    procs = [equivalence._run(SRC, backend, argvs) for backend in equivalence.BACKENDS]
    lapack, python = (equivalence._answers(proc, SRC) for proc in procs)
    assert len(lapack) == len(python) == len(argvs)
    for argv, a, b in zip(argvs, lapack, python):
        stamps = [{d.pop("kernel_backend") for d in answer["diagnostics"]} for answer in (a, b)]
        assert stamps[0] <= {"lapack"} and stamps[1] <= {"python"}, argv
        assert a == b, argv


def test_a_perturbed_result_within_its_bars_passes(equivalence, tmp_path):
    # inverse iteration from three times further below the bracket moves
    # mu, the concentration and the residual by rounding, and nothing else
    tree = _perturbed(tmp_path, "max(10.0 * _TOL_ABS", "max(30.0 * _TOL_ABS")
    bars = {"mu": 1e-12, "concentration": 1e-6, "residual": 1.0}
    report = equivalence.compare(SRC, tree, COMMANDS, backends=("lapack",), bars=bars)
    assert report["lapack"]["results"] == report["lapack"]["diagnostics"] == []
    [(argv, changes)] = report["lapack"]["bars"]
    assert argv == COMMANDS[0] and set(changes) == set(bars)
    assert all(0.0 < changes[key][0] <= bars[key] for key in bars)
    assert equivalence.within_bars(report, bars) and not equivalence.identical(report)


def test_a_perturbed_result_beyond_its_bar_fails(equivalence, tmp_path):
    tree = _perturbed(tmp_path, "_CORE = 0.01 ", "_CORE = 0.02 ")
    bars = {"concentration": 1e-3}
    report = equivalence.compare(SRC, tree, COMMANDS, backends=("lapack",), bars=bars)
    assert report["lapack"]["results"] == []
    [(argv, changes)] = report["lapack"]["bars"]
    assert argv == COMMANDS[0] and changes["concentration"][0] > 1e-3
    assert not equivalence.within_bars(report, bars)
    # an unbarred change stays a difference of its parts
    report = equivalence.compare(SRC, tree, COMMANDS, backends=("lapack",), bars={"mu": 1.0})
    assert report["lapack"]["results"] == [(COMMANDS[0], ["records.jsonl", "stdout"])]
    assert report["lapack"]["bars"] == []


def test_barred_values_in_stdout_csv_and_records(equivalence):
    old = {
        "stdout": "lambda=-1.000000 mu=0.25 concentration=0.9\nmu_lo = 0.5\n",
        "t.csv": [["lambda", "mu"], ["-1.0", "0.25"]],
        "records.jsonl": [{"results": {"mu": (0.25).hex(), "rows": 1}}],
    }
    new = {
        "stdout": "lambda=-1.000000 mu=0.2500000001 concentration=0.9\nmu_lo = 0.5\n",
        "t.csv": [["lambda", "mu"], ["-1.0", "0.25"]],
        "records.jsonl": [{"results": {"mu": (0.5).hex(), "rows": 1}}],
    }
    parts, changes = equivalence._barred(new, old, {"mu": 1.0})
    assert parts == [] and changes["mu"] == pytest.approx((0.5, 0.25))
    # mu_lo is another key, so its value is compared as text
    new["stdout"] = new["stdout"].replace("0.5\n", "0.6\n")
    assert equivalence._barred(new, old, {"mu": 1.0})[0] == ["stdout"]
    # the same value in other digits is no change, and still a difference
    same = {**old, "stdout": old["stdout"].replace("mu=0.25 ", "mu=0.250 ")}
    parts, changes = equivalence._barred(same, old, {"mu": 1.0})
    assert parts == [] and changes == {"mu": None}
    report = {"lapack": {"commands": 1, "results": [], "diagnostics": [], "bars": [(["cmd"], changes)]}}
    assert not equivalence.within_bars(report, {"mu": 1.0})
    # an added empty field or a duplicated barred column is a difference of its part
    grown = {**old, "records.jsonl": [{"results": {"mu": (0.25).hex(), "rows": 1, "extra": {}}}]}
    assert equivalence._barred(grown, old, {"mu": 1.0})[0] == ["records.jsonl"]
    wider = {**old, "t.csv": [["lambda", "mu", "mu"], ["-1.0", "0.25", "0.25"]]}
    assert equivalence._barred(wider, old, {"mu": 1.0})[0] == ["t.csv"]
