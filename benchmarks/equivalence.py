#!/usr/bin/env python3
"""Check that two source trees give the same answers, bit for bit.

The commands are the README examples of ``bench_e2e.README`` and pass 0 of
every ``perfbench`` workload at seeds 0-3.  Each runs in-process through
``hardylab.cli.main`` with a fresh ``--out`` directory, once per source
tree and backend.  Each tree runs in its own worker process per backend:
``lapack`` is the backend resolved at import, ``python`` the Python-float
recurrences (the three LAPACK handles unset and ``_kernels.BACKEND`` set to
``"python"`` before the first command, so its records name that backend).

An answer is the exit code, stdout, stderr, every CSV table and every
record of ``records.jsonl``.  The output directory's path is masked in the
streams, each record drops its timestamp, and every float in a record is
compared as its hex string, so -0.0 and NaN compare by their bits.  CSV
cells are compared as the text ``csv`` wrote, which is repr's exact digits.
A record's ``diagnostics`` (backend stamp and kernel call counts) are
reported apart from the rest of the answer (``results``), since a change
may spend fewer calls on the same numbers.

Usage:
  python benchmarks/equivalence.py --baseline SRC [--src SRC]

Exits 1 when any answer differs.
"""

import argparse
import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_e2e import README  # noqa: E402
from perfbench.workloads import WORKLOADS, jobs  # noqa: E402

SEEDS = range(4)
BACKENDS = ("lapack", "python")


def commands() -> list[list[str]]:
    """The README examples, then pass 0 of each workload at each seed,
    each command once."""
    argvs = [list(argv) for argv in README]
    argvs += [list(job.argv) for workload in WORKLOADS for seed in SEEDS for job in jobs(workload, seed, 0)]
    return [list(argv) for argv in dict.fromkeys(map(tuple, argvs))]


def _hex(value):
    """``value`` with every float replaced by its hex string."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: _hex(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_hex(v) for v in value]
    return value


def _answer(code, stdout: str, stderr: str, out_dir: str) -> dict:
    """One command's answer, split into ``results`` and ``diagnostics``."""
    results = {"exit": code, "stdout": stdout.replace(out_dir, "<out>"), "stderr": stderr.replace(out_dir, "<out>")}
    diagnostics = []
    names = sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []
    for name in names:
        path = os.path.join(out_dir, name)
        with open(path, newline="", encoding="utf-8") as fh:
            if name == "records.jsonl":
                records = [json.loads(line) for line in fh]
                results[name] = [_hex({k: v for k, v in r.items() if k not in ("timestamp", "diagnostics")}) for r in records]
                diagnostics = [_hex(r.get("diagnostics")) for r in records]
            elif name.endswith(".csv"):
                results[name] = list(csv.reader(fh))
            else:
                results[name] = fh.read()
    return {"results": results, "diagnostics": diagnostics}


def worker(src: str, backend: str) -> None:
    """Run the JSON list of commands on stdin and print their answers as
    one JSON list."""
    sys.path.insert(0, src)
    from hardylab import _kernels, cli

    if backend == "python":
        _kernels._PTTRF = _kernels._PTTRS = _kernels._GESV = None
        _kernels.BACKEND = "python"
    argvs = json.loads(sys.stdin.readline())
    answers = []
    with tempfile.TemporaryDirectory(prefix="equivalence-") as tmp:
        for i, argv in enumerate(argvs):
            out_dir = os.path.join(tmp, str(i))
            stdout, stderr = io.StringIO(), io.StringIO()
            # a fresh warnings state per command: each shows its own warnings
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), warnings.catch_warnings():
                warnings.simplefilter("default")
                try:
                    code = cli.main([*argv, "--out", out_dir])
                except SystemExit as exc:
                    code = exc.code
            answers.append(_answer(code, stdout.getvalue(), stderr.getvalue(), out_dir))
    print(json.dumps(answers))


def _run(src: str, backend: str, argvs) -> subprocess.Popen:
    proc = subprocess.Popen(
        [sys.executable, __file__, "--worker", src, "--backend", backend],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    proc.stdin.write(json.dumps(argvs) + "\n")
    proc.stdin.close()
    return proc


def _answers(proc: subprocess.Popen, src: str) -> list:
    out = proc.stdout.read()
    proc.stdout.close()
    if proc.wait() != 0 or not out:
        raise SystemExit(f"the worker for {src} failed (exit {proc.returncode})")
    return json.loads(out)


def compare(src: str, baseline: str, argvs=None, backends=BACKENDS) -> dict:
    """For each backend, the commands whose ``results`` and whose
    ``diagnostics`` differ between the two trees, each as (argv, the parts
    that differ)."""
    argvs = commands() if argvs is None else [list(a) for a in argvs]
    report = {}
    for backend in backends:
        procs = [_run(src, backend, argvs), _run(baseline, backend, argvs)]
        new, old = (_answers(p, s) for p, s in zip(procs, (src, baseline)))
        report[backend] = {"commands": len(argvs), "results": [], "diagnostics": []}
        for argv, a, b in zip(argvs, new, old):
            parts = sorted(k for k in a["results"].keys() | b["results"].keys() if a["results"].get(k) != b["results"].get(k))
            if parts:
                report[backend]["results"].append((argv, parts))
            if a["diagnostics"] != b["diagnostics"]:
                report[backend]["diagnostics"].append((argv, ["diagnostics"]))
    return report


def identical(report: dict) -> bool:
    return not any(r["results"] or r["diagnostics"] for r in report.values())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="source tree of the change (default: this checkout)")
    parser.add_argument("--baseline", help="source tree to compare against, e.g. a parent checkout's src")
    parser.add_argument("--worker", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--backend", choices=BACKENDS, default="lapack", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker is not None:
        worker(args.worker, args.backend)
        return
    if args.baseline is None:
        parser.error("--baseline is required")
    report = compare(args.src, args.baseline)
    for backend, r in report.items():
        for kind in ("results", "diagnostics"):
            for argv, parts in r[kind]:
                print(f"DIFFERS {backend} {kind}: {' '.join(argv)}: {', '.join(parts)}")
        n = r["commands"]
        print(
            f"{backend}: {n} commands, results identical on {n - len(r['results'])}, "
            f"diagnostics identical on {n - len(r['diagnostics'])}"
        )
    sys.exit(0 if identical(report) else 1)


if __name__ == "__main__":
    main()
