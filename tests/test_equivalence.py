"""``benchmarks/equivalence.py``, run on a short command list through its
Python API: a tree is identical to itself on both backends, and a copy with
one perturbed constant is flagged, in the results or in the kernel counts
alone.  On its full command list, this checkout's two backends give the
same answers."""

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
