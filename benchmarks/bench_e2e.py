#!/usr/bin/env python3
"""Time the README CLI examples and the ``cli-quadrature`` commands end to
end, in-process through ``hardylab.cli.main``, and write a BENCH json.

Each source tree (``--src``, default this checkout's ``src``; optionally a
second one with ``--baseline``) is timed in its own worker process, which
imports hardylab from that tree once and then runs one round on request:
every command once, each with a fresh ``--out`` directory and its output
discarded.  Rounds alternate between the trees (ABBA order) and the
commands run forwards in even rounds and backwards in odd ones, so a drift
of the machine's speed falls on both trees alike.  One untimed round per
tree warms the imports and caches first.

Reported per command and for two totals: the median and quartiles of the
seconds per call over the rounds.  ``quadrature_pass`` is the sum of the six
``cli-quadrature`` commands (one pass of that workload at seed 0) and
``readme`` the sum of the nine README examples.  With a baseline, the
ratio change / baseline of each median and the share of rounds whose pass
the change won are added.  Every tree is stamped with its
``_kernels.BACKEND`` and its python and numpy versions.

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
# one pass of the cli-quadrature workload at seed 0
QUADRATURE = [job.argv for job in jobs("cli-quadrature", 0, 0)]
COMMANDS = [("readme", argv) for argv in README] + [("quadrature", argv) for argv in QUADRATURE]


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


def totals(w: Worker) -> dict:
    series = {
        "quadrature_pass": [sum(s for (kind, _), s in zip(COMMANDS, r) if kind == "quadrature") for r in w.rounds],
        "readme": [sum(s for (kind, _), s in zip(COMMANDS, r) if kind == "readme") for r in w.rounds],
    }
    for i, (kind, argv) in enumerate(COMMANDS):
        series[f"{kind}: {' '.join(argv)}"] = [r[i] for r in w.rounds]
    return series


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="source tree of the change (default: this checkout)")
    parser.add_argument("--baseline", default=None, help="source tree to compare against, e.g. a parent checkout's src")
    parser.add_argument("--rounds", type=int, default=20, help="timed rounds per tree")
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
        wins = sum(a < b for a, b in zip(new["quadrature_pass"], old["quadrature_pass"]))
        result["quadrature_pass_rounds_won"] = f"{wins}/{args.rounds}"

    for name, tree in result["trees"].items():
        for key in ("quadrature_pass", "readme"):
            s = tree["seconds"][key]
            print(f"{name:9s} {key:16s} median {s['median']:.4f} s  [{s['q1']:.4f}, {s['q3']:.4f}]")
    if "change_over_baseline" in result:
        for key in ("quadrature_pass", "readme"):
            print(f"change / baseline {key}: {result['change_over_baseline'][key]:.3f}")
        print(f"quadrature pass rounds won: {result['quadrature_pass_rounds_won']}")
    if args.out is not None:
        args.out.write_text(json.dumps(result, indent=1) + "\n")


if __name__ == "__main__":
    main()
