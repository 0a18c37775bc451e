#!/usr/bin/env python3
"""Time the README CLI examples and the ``cli-quadrature``,
``minimizer-theorem2`` and ``pencil-threshold`` commands end to end,
in-process through ``hardylab.cli.main``, and write a BENCH json.

Each source tree (``--src``, default this checkout's ``src``; optionally a
second one with ``--baseline``) is timed in its own worker process, which
imports hardylab from that tree once and then runs one round on request:
every command once, each with a fresh ``--out`` directory and its output
discarded.  Rounds alternate between the trees (ABBA order) and the
commands run forwards in even rounds and backwards in odd ones, so a drift
of the machine's speed falls on both trees alike.  One untimed round per
tree warms the imports and caches first.

Reported per command and for four totals: the median and quartiles of the
seconds per call over the rounds.  ``quadrature_pass`` is the sum of the six
``cli-quadrature`` commands (one pass of that workload at seed 0),
``minimizer_pass`` the sum of the four ``minimizer-theorem2`` commands,
``pencil_pass`` the sum of the three ``pencil-threshold`` commands (one pass
each at seed 0) and ``readme`` the sum of the nine README examples.  With a
baseline, the ratio change / baseline of each median and, for each total,
the share of rounds the change won and a verdict are added.  The verdict is
the rule of ``perfbench/compare.py``: ``improved`` (``worse``) only when the
change wins (loses) at least nine tenths of the rounds and the medians
differ by more than the interquartile range of the baseline's own rounds,
``unresolved`` otherwise, since the machine's speed swings by about 10 %
between runs and a median ratio alone cannot tell that from a change.
Every tree is stamped with its ``_kernels.BACKEND`` and its python and
numpy versions.

Usage:
  python benchmarks/bench_e2e.py [--rounds N] [--baseline SRC] [--out BENCH.json]
"""

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench.workloads import jobs  # noqa: E402

README = [
    ["constants", "--dim", "3", "--sigma", "1"],
    ["bubble-moments", "--dim", "5", "--sigma", "1", "--tol", "1e-10"],
    ["solve", "--sigma", "2", "--lambda", "-1", "--manifold", "sphere", "--radius", "1", "--dim", "3", "--rmax", "pi"],
    ["solve", "--sigma", "1", "--lambda", "-1", "--dim", "4", "--nodes", "1024", "--grading", "2"],
    ["mu-curve", "--lambda-min", "-3", "--lambda-max", "1", "--steps", "9", "--dim", "3"],
    ["lambda-star", "--dim", "3", "--tol", "0.05"],
    ["theorem2-check", "--manifold", "sphere", "--radius", "1", "--dim", "4", "--lambda", "-1", "--sigma", "1"],
    ["expansion-fit", "--lambda", "-1", "--sigma", "1", "--dim", "5", "--n", "4,8,16,32,64"],
    ["verify", "--suite", "all"],
]
# one pass of the cli-quadrature, minimizer-theorem2 and pencil-threshold workloads at seed 0
PASSES = {"quadrature": "cli-quadrature", "minimizer": "minimizer-theorem2", "pencil": "pencil-threshold"}
COMMANDS = [("readme", argv) for argv in README] + [
    (kind, job.argv) for kind, workload in PASSES.items() for job in jobs(workload, 0, 0)
]
TOTALS = {f"{kind}_pass": kind for kind in PASSES} | {"readme": "readme"}  # total: kind of its commands


def worker(src: str) -> None:
    """Serve rounds over stdin/stdout: a line "forward" or "backward" runs
    every command once in that order and answers with its seconds."""
    sys.path.insert(0, src)
    import numpy as np

    from hardylab import _kernels, cli

    stamp = {
        "kernel_backend": _kernels.BACKEND,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    print(json.dumps(stamp), flush=True)
    with tempfile.TemporaryDirectory(prefix="bench-e2e-") as tmp:
        calls = 0
        for line in sys.stdin:
            order = list(range(len(COMMANDS)))
            if line.strip() == "backward":
                order.reverse()
            seconds = [0.0] * len(COMMANDS)
            for i in order:
                calls += 1
                argv = [*COMMANDS[i][1], "--out", os.path.join(tmp, str(calls))]
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    t0 = time.perf_counter()
                    rc = cli.main(argv)
                    seconds[i] = time.perf_counter() - t0
                if rc != 0:
                    raise SystemExit(f"{' '.join(argv)} exited {rc}: {sink.getvalue()}")
            print(json.dumps(seconds), flush=True)


class Worker:
    def __init__(self, src: str):
        self.src = src
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--worker", src],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.stamp = json.loads(self.proc.stdout.readline())
        self.rounds: list[list[float]] = []

    def round(self, order: str, keep: bool = True) -> None:
        self.proc.stdin.write(order + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"worker for {self.src} stopped")
        if keep:
            self.rounds.append(json.loads(line))

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def verdict(new: list[float], old: list[float]) -> str:
    """improved, worse or unresolved: see the module docstring."""
    q1, median, q3 = statistics.quantiles(old, n=4, method="inclusive")
    gap = statistics.median(new) - median
    won = sum(a < b for a, b in zip(new, old)) if gap < 0 else sum(a > b for a, b in zip(new, old))
    if abs(gap) > q3 - q1 and won >= 0.9 * len(old):
        return "improved" if gap < 0 else "worse"
    return "unresolved"


def totals(w: Worker) -> dict:
    series = {
        total: [sum(s for (k, _), s in zip(COMMANDS, r) if k == kind) for r in w.rounds]
        for total, kind in TOTALS.items()
    }
    for i, (kind, argv) in enumerate(COMMANDS):
        series[f"{kind}: {' '.join(argv)}"] = [r[i] for r in w.rounds]
    return series


def rounds(text: str) -> int:
    """--rounds: quartiles need at least two rounds."""
    n = int(text)
    if n < 2:
        raise argparse.ArgumentTypeError(f"at least 2 rounds are needed for the quartiles, got {n}")
    return n


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="source tree of the change (default: this checkout)")
    parser.add_argument("--baseline", default=None, help="source tree to compare against, e.g. a parent checkout's src")
    parser.add_argument("--rounds", type=rounds, default=20, help="timed rounds per tree, at least 2")
    parser.add_argument("--out", type=Path, default=None, help="write the results as JSON here")
    parser.add_argument("--worker", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker is not None:
        worker(args.worker)
        return

    trees = {"change": Worker(args.src)}
    if args.baseline is not None:
        trees["baseline"] = Worker(args.baseline)
    names = list(trees)
    try:
        for w in trees.values():
            w.round("forward", keep=False)
        for k in range(args.rounds):
            order = "forward" if k % 2 == 0 else "backward"
            for name in names if k % 4 in (0, 3) else names[::-1]:
                trees[name].round(order)
    finally:
        for w in trees.values():
            w.close()

    result = {
        "environment": {"machine": platform.machine(), "cpus": os.cpu_count(), "platform": platform.platform()},
        "rounds": args.rounds,
        "trees": {},
    }
    for name, w in trees.items():
        result["trees"][name] = {"stamp": w.stamp, "seconds": {k: summary(v) for k, v in totals(w).items()}}
    if "baseline" in trees:
        new, old = totals(trees["change"]), totals(trees["baseline"])
        result["change_over_baseline"] = {
            k: statistics.median(new[k]) / statistics.median(old[k]) for k in new
        }
        for key in TOTALS:
            wins = sum(a < b for a, b in zip(new[key], old[key]))
            result[f"{key}_rounds_won"] = f"{wins}/{args.rounds}"
            result[f"{key}_verdict"] = verdict(new[key], old[key])

    for name, tree in result["trees"].items():
        for key in TOTALS:
            s = tree["seconds"][key]
            print(f"{name:9s} {key:16s} median {s['median']:.4f} s  [{s['q1']:.4f}, {s['q3']:.4f}]")
    if "change_over_baseline" in result:
        for key in TOTALS:
            print(f"change / baseline {key}: {result['change_over_baseline'][key]:.3f}")
        for key in TOTALS:
            print(f"{key} rounds won: {result[f'{key}_rounds_won']}, verdict {result[f'{key}_verdict']}")
    if args.out is not None:
        args.out.write_text(json.dumps(result, indent=1) + "\n")


if __name__ == "__main__":
    main()
