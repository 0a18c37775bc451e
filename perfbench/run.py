#!/usr/bin/env python3
"""hardylab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload pencil-threshold --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/``.  Workloads: pencil-threshold, minimizer-theorem2, cli-quadrature
(see workloads.py).

``--trace 0`` measures the end-to-end metrics with tracing off: set-up time
of fresh interpreters, then passes over the workload's job list for
``--seconds``.  ``--trace 1`` alternates untraced and traced passes on the
same inputs for ``--seconds`` and reports the per-layer metrics, the tracing
overhead and the kernel timings.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
A result file stamped with the environment goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402  (none of these imports numpy)
import kernel_bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def load_program():
    """Pin the BLAS/OpenMP pools to one thread, then import hardylab from
    this checkout's ``src/`` and nowhere else."""
    init = harness.SRC / "hardylab" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no hardylab sources at {init.parent}; run from a source checkout")
    os.environ.update(harness.BLAS_PIN)
    sys.path.insert(0, str(harness.SRC))
    import hardylab
    import hardylab.cli

    if Path(hardylab.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported hardylab from {hardylab.__file__}, not from {init.parent}")
    return hardylab.cli, sys.modules["hardylab._kernels"]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _unit(name):
    if name.endswith("self_s"):
        return "s"
    if name.endswith(("_ratio", "per_solve", "per_bracket")):
        return "ratio"
    return "B" if name.endswith("bytes") else "count"


def end_to_end(passes, setup, probe):
    """The end-to-end metrics and, per metric, what it is a statistic of.

    Each job's wall time is divided by the machine's slowdown against the
    reference speed around that job (``harness.SpeedProbe``); a pass is the
    sum of its jobs.  ``setup`` is ``harness.measure_setup``'s (scaled, wall).
    The wall-time statistics go to the result file.
    """
    setup_times, setup_wall = setup

    def stats(job_times):
        passes_s = [sum(p) for p in job_times]
        # median over the job list of each job's median time: the jobs of a
        # workload differ in size, and a median over all job samples would
        # jump between the sizes that meet in the middle
        per_job = [statistics.median(t) for t in zip(*job_times)]
        tail, pct, n = harness.tail(passes_s)
        return {"pass_s": statistics.median(passes_s), "pass_s_tail": tail, "job_s_p50": statistics.median(per_job)}, pct, n

    wall_jobs = [p.job_s for p in passes]
    scaled_jobs = [[s / probe.factor(t0, t1) for s, (t0, t1) in zip(p.job_s, p.job_at)] for p in passes]
    wall, _, _ = stats(wall_jobs)
    wall["setup_s"] = statistics.median(setup_wall)
    scaled, pct, n = stats(scaled_jobs)
    metrics = {
        "setup_s": _metric(statistics.median(setup_times), "s"),
        **{name: _metric(value, "s") for name, value in scaled.items()},
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    basis = {
        "setup_s": f"median of {len(setup_times)} interpreter starts",
        "pass_s": f"median of {n} passes",
        "pass_s_tail": f"p{pct:.0f} of {n} passes" + ("" if n >= 11 else " (fewer than 11 passes: maximum)"),
        "job_s_p50": f"median of the medians of {len(passes[0].job_s)} jobs over {n} passes",
        "peak_rss_mb": "measuring process",
    }
    for name, value in wall.items():
        basis[name] += f"; wall {value:.6g} s"
    extra = {
        "tail_percentile": pct,
        "passes": n,
        "wall": wall,
        "speed_factor": probe.factor(),
        "speed_samples": probe.samples,
        "setup_samples": setup_times,
        "setup_wall": setup_wall,
    }
    return metrics, basis, extra


def per_layer(spans, untraced, traced, kernel_times):
    """Medians over the traced passes of each per-layer metric, the tracing
    overhead and the kernel timings; plus the self-time shares."""
    selves = tracing.self_times(spans)
    rows = [harness.layer_metrics(spans, selves, p) for p in traced]
    metrics = {name: _metric(statistics.median(r[name] for r in rows), _unit(name)) for name in rows[0]}
    overhead = statistics.median(b.wall_s / a.wall_s for a, b in zip(untraced, traced))
    metrics["trace.overhead_ratio"] = _metric(overhead, "ratio")
    for name, (value, unit) in kernel_times.items():
        metrics[name] = _metric(value, unit)
    return metrics, harness.layer_shares(spans, selves)


def measure(workload, seed, seconds, trace, scale, cli, reference, work, probe):
    """Run the passes.  Returns (untraced, traced, mismatched pass indices,
    traced instrument or None)."""
    # warm-up: the workload's jobs once on the smallest grids, unmeasured
    light = tracing.Instrument(trace=False)
    with light:
        harness.Runner(workload, seed, "smoke", cli, light, None).run_pass(0, work)
    plain = harness.Runner(workload, seed, scale, cli, light, reference, keep_answers=trace, probe=probe)
    if not trace:
        with light:
            return harness.closed_loop(seconds, lambda index: plain.run_pass(index, work)), [], [], None

    # an untraced and a traced pass on the same inputs, taking turns at going
    # first, so drift of the machine's speed and any advantage of running
    # second cancel out of the overhead
    full = tracing.Instrument(trace=True)
    shadow = harness.Runner(workload, seed, scale, cli, full, reference, keep_answers=True)

    def untraced_pass(index):
        with light:
            return plain.run_pass(index, work)

    def traced_pass(index):
        with full:
            return shadow.run_pass(index, work)

    def step(index):
        if index % 2:
            b = traced_pass(index)
            return untraced_pass(index), b
        return untraced_pass(index), traced_pass(index)

    pairs = harness.closed_loop(seconds, step)
    mismatched = [a.index for a, b in pairs if a.answers != b.answers]
    return [a for a, _ in pairs], [b for _, b in pairs], mismatched, full


def run(workload, seed, seconds, trace, scale="full"):
    """One benchmark run.  Returns the result-file content and the last line."""
    cli, kernels = load_program()
    env = harness.environment(kernels)
    reference = None
    if seed == 0 and scale == "full":
        reference = json.loads(harness.REFERENCE.read_text())[workload]
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    print(f"# {workload} seed={seed} trace={int(trace)} backend={env['kernel_backend']} "
          f"blas_threads=1 nproc={env['nproc']}")

    harness.OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=harness.OUT))
    try:
        probe = harness.SpeedProbe()
        setup = None if trace else harness.measure_setup(probe)
        kernel_times = kernel_bench.run(kernels) if trace else {}
        untraced, traced, mismatched, full = measure(workload, seed, seconds, trace, scale, cli, reference, work, probe)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = untraced + traced
    attempted = sum(len(p.job_s) for p in passes)
    failed = harness.failed_jobs(passes)
    not_converged, solver_results = harness.unconverged(untraced)
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "scale": scale,
        "started": started,
        "environment": env,
        "correct": failed == 0 and not mismatched,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "unconverged": not_converged,
        "solver_results": solver_results,
        "unconverged_frac": not_converged / max(solver_results, 1),
        "failures": [[p.index, label, msg] for p in passes for label, msg in p.failures],
        "mismatched": mismatched,
        "pass_s_samples": [p.wall_s for p in untraced],
        "job_s_samples": {
            job.label: [p.job_s[i] for p in untraced] for i, job in enumerate(workloads.jobs(workload, seed, 0, scale))
        },
    }
    for index, label, message in result["failures"]:
        print(f"FAILED pass {index} {label}: {message}")
    for index in mismatched:
        print(f"FAILED pass {index}: traced and untraced answers differ")
    print(f"unconverged_frac = {result['unconverged_frac']:.6g} ({not_converged} of {solver_results} solver results)")
    print(f"failed_frac = {result['failed_frac']:.6g} ({failed} of {attempted} jobs)")

    basis = {}
    if trace:
        metrics, shares = per_layer(full.spans, untraced, traced, kernel_times)
        spans_path = _result_path(workload, seed, trace, started, "spans.csv.gz")
        tracing.write_spans(spans_path, full.spans)
        result.update(shares=shares, absent=full.absent, traced_passes=len(traced),
                      spans_file=str(spans_path.relative_to(harness.ROOT)))
        for name in full.absent:
            print(f"absent entry point: {name}")
        print(f"tracing overhead = {metrics['trace.overhead_ratio']['value']:.4f} x untraced pass time "
              f"(median of {len(traced)} traced/untraced pairs)")
        print("self-time share by module: " + ", ".join(f"{k} {v:.1%}" for k, v in shares["modules"].items()))
        print("top self time: " + ", ".join(f"{k} {v:.1%}" for k, v in shares["functions"].items()))
        print(f"kernel timings: backend {env['kernel_backend']} (M = 4096, rng seed 7)")
    else:
        metrics, basis, extra = end_to_end(untraced, setup, probe)
        result.update(extra)
        print(f"machine speed factor = {probe.factor():.4f} (median of {len(probe.samples)} probe samples; above 1 is slower)")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}" + (f"  [{basis[name]}]" if name in basis else ""))

    result["metrics"] = metrics
    _result_path(workload, seed, trace, started, "json").write_text(json.dumps(result, indent=1, sort_keys=True))
    last = {"correct": result["correct"], "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, last


def _result_path(workload, seed, trace, started, suffix):
    folder = harness.OUT / workload
    folder.mkdir(parents=True, exist_ok=True)
    stamp = started.replace(":", "").replace("-", "").split(".")[0]
    return folder / f"seed{seed}-trace{int(trace)}-{stamp}.{suffix}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _, last = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(last))
    return 0


if __name__ == "__main__":
    sys.exit(main())
