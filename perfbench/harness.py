"""The measuring loop behind ``run.py``.

One process, one client, closed loop: a pass runs the workload's jobs one
after another through ``hardylab.cli.main`` with a fresh ``--out`` each, and
the next pass starts only when the previous one has returned.  Answers are
checked after the pass, outside its timing.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

SETUP_REPEATS = 9
BLAS_PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
READY = "hardylab-ready"


# ---------------------------------------------------------------------------
# environment stamp
# ---------------------------------------------------------------------------


def _git(*args):
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(dist):
    from importlib import metadata

    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def environment(kernels_module) -> dict:
    """Which interpreter, libraries, backend and machine produced a result."""
    commit = _git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    status = _git("status", "--porcelain", "--untracked-files=no") if commit else None
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "have_numba": bool(kernels_module.HAVE_NUMBA),
        "kernel_backend": "numba" if kernels_module.HAVE_NUMBA else "numpy-fallback",
        "HARDYLAB_DISABLE_NUMBA": os.environ.get("HARDYLAB_DISABLE_NUMBA"),
        "blas_pin": {k: os.environ.get(k) for k in BLAS_PIN},
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": commit,
        "git_dirty": None if status is None else bool(status),
    }


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------

_CHILD = (
    "import sys; sys.path.insert(0, sys.argv[1]); import hardylab.cli; "
    f"print({READY!r}, flush=True)"
)


def measure_setup(probe, repeats: int = SETUP_REPEATS) -> tuple[list[float], list[float]]:
    """Seconds from starting a fresh interpreter to ``hardylab.cli`` imported:
    ``(scaled, wall)``, where scaled divides each wall time by the machine's
    speed factor around it (see ``SpeedProbe``).

    One unmeasured start first fills the bytecode cache, as any earlier use
    of the program would have.
    """
    env = dict(os.environ, **BLAS_PIN)
    spans = []
    for i in range(repeats + 1):
        probe.sample()
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", _CHILD, str(SRC)], stdout=subprocess.PIPE, env=env, text=True, cwd=ROOT
        ) as proc:
            line = proc.stdout.readline().strip()
            t1 = time.perf_counter()
            proc.stdout.read()
            proc.wait(timeout=60)
        if line != READY or proc.returncode != 0:
            raise RuntimeError("the set-up child did not import hardylab.cli")
        if i:
            spans.append((t0, t1))
    probe.sample()
    wall = [t1 - t0 for t0, t1 in spans]
    return [(t1 - t0) / probe.factor(t0, t1) for t0, t1 in spans], wall


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


@dataclass
class PassResult:
    index: int
    wall_s: float
    job_s: list = field(default_factory=list)
    job_at: list = field(default_factory=list)  # (start, end) of each job, perf_counter seconds
    answers: list = field(default_factory=list)
    failures: list = field(default_factory=list)  # (label, message)
    record_bytes: int = 0
    jobs: range = range(0)  # global job ids of this pass
    outcomes: list = field(default_factory=list)


def read_answer(out_dir: Path, rc) -> dict:
    """Exit code, appended records (timestamps dropped) and CSV tables."""
    path = out_dir / "records.jsonl"
    records = []
    if path.exists():
        for line in path.read_text(encoding="utf-8").splitlines():
            rec = json.loads(line)
            rec.pop("timestamp", None)
            records.append(rec)
    tables = {p.stem: p.read_text(encoding="utf-8") for p in sorted(out_dir.glob("*.csv"))}
    return {"rc": rc, "records": records, "tables": tables}


def _call(cli, argv):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return cli.main(argv), None
        except SystemExit as exc:
            return exc.code, f"exited {exc.code}: {sink.getvalue()[-300:]}"
        except Exception as exc:  # a crashed job is a failed job; the run goes on
            return None, f"raised {type(exc).__name__}: {exc}"


class SpeedProbe:
    """Times a fixed reference task between jobs, at most every
    ``INTERVAL_S`` seconds, outside every job's timing.

    The task is the benchmark's own code, not hardylab's: an LDL^T pivot
    recurrence in plain Python and a few small NumPy operations, the two kinds
    of work the workloads spend their time on.  A change to the program does
    not move it; the machine does.  The CPU speed of the shared machine this
    benchmark was built on drifts by 15 to 30 % over seconds to minutes, so
    each job's and each set-up start's wall time is divided by ``factor``
    around it.
    """

    ROWS = 4096
    REFERENCE_S = 0.006  # the task's time at the reference speed (nominal)
    INTERVAL_S = 0.25  # at most one sample per interval
    WINDOW_S = 1.0  # samples this close to a job set its factor

    def __init__(self):
        import numpy as np

        i = np.arange(self.ROWS, dtype=float)  # fixed inputs; numpy.random would add to peak memory
        self.d = 2.0 + np.abs(np.sin(0.7 * i))
        self.e = 0.3 * np.cos(1.3 * i)
        self.v = np.sin(i[:1024]).reshape(64, 16)
        self.np = np
        self.samples: list[tuple[float, float]] = []  # (taken at, seconds)
        self._last = -math.inf

    def task(self) -> float:
        np, d, e = self.np, self.d, self.e
        t0 = time.perf_counter()
        for _ in range(2):
            piv, count = d[0], 0
            for i in range(1, self.ROWS):
                piv = d[i] - e[i - 1] * e[i - 1] / piv
                count += piv < 0.0
        for _ in range(40):
            float(np.sum(np.abs(self.v) ** 1.5))
        return time.perf_counter() - t0

    def sample(self):
        self.samples.append((time.perf_counter(), self.task()))
        self._last = time.perf_counter()

    def maybe_sample(self):
        if time.perf_counter() - self._last >= self.INTERVAL_S:
            self.sample()

    def factor(self, t0: float | None = None, t1: float | None = None) -> float:
        """Median task time over its reference time (above 1 when the machine
        ran slower than the reference): over the whole run, or over the
        samples within ``WINDOW_S`` seconds of ``[t0, t1]`` (the three
        nearest when fewer are that close)."""
        if t0 is None:
            near = [d for _, d in self.samples]
        else:
            near = [d for t, d in self.samples if t0 - self.WINDOW_S <= t <= t1 + self.WINDOW_S]
            if len(near) < 3:
                mid = 0.5 * (t0 + t1)
                near = [d for _, d in sorted(self.samples, key=lambda s: abs(s[0] - mid))[:3]]
        return statistics.median(near) / self.REFERENCE_S


class Runner:
    """Runs passes of one workload through ``cli.main`` and checks them.

    Answers are kept on the pass result only with ``keep_answers`` (to
    compare traced with untraced passes), so that they do not add to the
    peak memory of untraced runs.
    """

    def __init__(self, workload, seed, scale, cli, instrument, reference, keep_answers=False, probe=None):
        self.workload, self.seed, self.scale = workload, seed, scale
        self.cli, self.instrument = cli, instrument
        self.reference = reference
        self.keep_answers = keep_answers
        self.probe = probe
        self.next_job = 0

    def run_pass(self, index: int, work: Path) -> PassResult:
        jobs = workloads.jobs(self.workload, self.seed, index, self.scale)
        outs = [Path(tempfile.mkdtemp(prefix=f"p{index}-", dir=work)) for _ in jobs]
        first_job, first_outcome = self.next_job, len(self.instrument.outcomes)
        results = []
        for job, out in zip(jobs, outs):
            if self.probe is not None:
                self.probe.maybe_sample()
            self.instrument.job = self.next_job
            self.next_job += 1
            t0 = time.perf_counter()
            rc, error = _call(self.cli, [*job.argv, "--out", str(out)])
            results.append((rc, error, t0, time.perf_counter()))
        wall = sum(t1 - t0 for _, _, t0, t1 in results)

        res = PassResult(index=index, wall_s=wall, jobs=range(first_job, self.next_job))
        res.outcomes = self.instrument.outcomes[first_outcome:]
        for job, out, (rc, error, t0, t1) in zip(jobs, outs, results):
            res.job_s.append(t1 - t0)
            res.job_at.append((t0, t1))
            res.record_bytes += sum(p.stat().st_size for p in out.iterdir())
            answer = read_answer(out, rc)
            if self.keep_answers:
                res.answers.append(answer)
            shutil.rmtree(out)
            if error is not None:
                res.failures.append((job.label, error))
                continue
            if rc != 0:
                res.failures.append((job.label, f"exit code {rc}, expected 0"))
                continue
            try:
                problems = job.check(answer, self.scale)
                if self.reference is not None:
                    problems += workloads.check_reference(job.label, answer, self.reference.get(job.label))
            except (KeyError, ValueError, TypeError, IndexError) as exc:
                problems = [f"answer unreadable: {type(exc).__name__}: {exc}"]
            res.failures.extend((job.label, p) for p in problems)
        return res


def closed_loop(budget_s: float, step) -> list:
    """Call ``step(0)``, ``step(1)``, ... one after another while the next
    call is expected to end within ``budget_s`` (at least one call)."""
    out, took = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        out.append(step(len(out)))
        took.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(took) > budget_s:
            return out


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def tail(values):
    """Highest percentile with at least ten samples above it.

    Returns ``(value, percentile, n)``.  Below eleven samples no percentile
    qualifies and the maximum is returned with percentile 100.
    """
    v = sorted(values)
    n = len(v)
    if n >= 11:
        return v[n - 11], 100.0 * (n - 10) / n, n
    return v[-1], 100.0, n


def failed_jobs(passes) -> int:
    """Jobs with at least one failure."""
    return sum(len({label for label, _ in p.failures}) for p in passes)


def unconverged(passes) -> tuple[int, int]:
    """(unconverged solver results, solver results) over the passes."""
    outcomes = [o for p in passes for o in p.outcomes]
    return sum(1 for o in outcomes if o[3]), len(outcomes)


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------

def _div(a, b):
    return a / b if b else 0.0


def layer_metrics(spans, selves, p: PassResult) -> dict:
    """Per-layer metrics of one traced pass."""
    jobs = spans.job_range(p.jobs.start, p.jobs.stop)
    table = tracing.layer_table(spans, selves, jobs)

    def row(name):
        return table.get(name, {"calls": 0, "size": 0, "self_s": 0.0})

    def module_self(prefix):
        return sum(r["self_s"] for name, r in table.items() if name.startswith(prefix + "."))

    eig = row(tracing.EIGEN)
    pm, pmg = row("_kernels.power_moment"), row("_kernels.power_moment_grad")
    brackets = row("thresholds.lambda_star_bracket")["calls"]
    eig_out = [o for o in p.outcomes if o[0] == tracing.EIGEN]
    min_out = [o for o in p.outcomes if o[0] == tracing.MINIMIZE]
    hs_grad_calls = tracing.count_under(spans, tracing.MINIMIZE, "forms.hs_gradient", jobs)
    hs_fun_calls = tracing.count_under(spans, tracing.MINIMIZE, "forms.hs_functional", jobs)
    m = {}
    for k in ("negcount", "tridiag_solve"):
        r = row(f"_kernels.{k}")
        m[f"kernels.{k}.calls"] = r["calls"]
        m[f"kernels.{k}.rows"] = r["size"]
        m[f"kernels.{k}.self_s"] = r["self_s"]
    m["kernels.power_moment.calls"] = pm["calls"] + pmg["calls"]
    m["kernels.power_moment.cells"] = pm["size"] + pmg["size"]
    m["kernels.power_moment.self_s"] = pm["self_s"] + pmg["self_s"]
    m[f"{tracing.EIGEN}.calls"] = eig["calls"]
    m[f"{tracing.EIGEN}.self_s"] = eig["self_s"]
    m["eigensolver.iterations"] = sum(o[1] for o in eig_out)
    m["eigensolver.fallbacks"] = sum(1 for o in eig_out if o[2])
    m["eigensolver.counts_per_solve"] = _div(tracing.count_under(spans, tracing.EIGEN, "_kernels.negcount", jobs), eig["calls"])
    m["eigensolver.solves_per_solve"] = _div(
        tracing.count_under(spans, tracing.EIGEN, "_kernels.tridiag_solve", jobs), eig["calls"]
    )
    for k in ("mu_curve", "lambda_star_bracket", "strict_inequality_report"):
        m[f"thresholds.{k}.self_s"] = row(f"thresholds.{k}")["self_s"]
    m["thresholds.eigensolves_per_bracket"] = _div(
        tracing.count_under(spans, "thresholds.lambda_star_bracket", tracing.EIGEN, jobs), brackets
    )
    m["thresholds.assemblies_per_bracket"] = _div(
        tracing.count_under(spans, "thresholds.lambda_star_bracket", "forms.assemble_forms", jobs), brackets
    )
    m[f"{tracing.MINIMIZE}.calls"] = row(tracing.MINIMIZE)["calls"]
    m[f"{tracing.MINIMIZE}.self_s"] = row(tracing.MINIMIZE)["self_s"]
    m["minimizer.grad_evals"] = hs_grad_calls
    m["minimizer.accept_ratio"] = _div(hs_grad_calls, hs_fun_calls)
    m["minimizer.unconverged"] = sum(1 for o in min_out if o[3])
    m["forms.assemble_forms.calls"] = row("forms.assemble_forms")["calls"]
    m["forms.assemble_forms.self_s"] = row("forms.assemble_forms")["self_s"]
    m["forms.hs.self_s"] = row("forms.hs_functional")["self_s"] + row("forms.hs_gradient")["self_s"]
    m["bubble.self_s"] = module_self("bubble")
    for k in ("quotient_series", "theory_coefficient", "fit_expansion"):
        m[f"expansion.{k}.self_s"] = row(f"expansion.{k}")["self_s"]
    m["hardy_refined.self_s"] = module_self("hardy_refined")
    m["cli.main.self_s"] = module_self("cli")  # main plus the argparse set-up it calls
    for k in ("write_record", "write_table"):
        m[f"records.{k}.calls"] = row(f"records.{k}")["calls"]
        m[f"records.{k}.self_s"] = row(f"records.{k}")["self_s"]
    m["records.bytes"] = p.record_bytes
    return m


def layer_shares(spans, selves) -> dict:
    """Share of all traced self time per layer module and, for the six
    largest, per entry point."""
    per_fn = tracing.layer_table(spans, selves)
    total = sum(r["self_s"] for r in per_fn.values()) or 1.0
    per_module: dict[str, float] = {}
    for name, r in per_fn.items():
        module = name.split(".", 1)[0]
        per_module[module] = per_module.get(module, 0.0) + r["self_s"] / total
    top = sorted(per_fn.items(), key=lambda kv: -kv[1]["self_s"])[:6]
    return {
        "modules": dict(sorted(per_module.items(), key=lambda kv: -kv[1])),
        "functions": {k: v["self_s"] / total for k, v in top},
    }
