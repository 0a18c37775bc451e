"""Spans and solver-result hooks around hardylab's public entry points.

Everything here acts from outside the package: each entry point is replaced,
in every hardylab module namespace that binds it, by a wrapper that records
a span (name, start, end, parent span, job id) and then calls the original.
Callers that bind a function by name (``from .eigensolver import
smallest_generalized_eigen``) and callers that go through a module attribute
(``_kernels.negcount``) both see the wrapper.  ``uninstall`` puts every
original back.

Spans stay in memory for the whole run; ``write_spans`` stores them when the
run ends.  An entry point listed here that the package no longer has is
reported as absent and skipped.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from bisect import bisect_left
from collections import defaultdict

# Public entry points per layer module.  ``constants`` and ``manifold`` are
# too small to time separately; their time counts to their callers.
ENTRY_POINTS = {
    "cli": ["build_parser", "main"],
    "records": ["default_out_dir", "write_record", "write_table"],
    "thresholds": [
        "default_bc",
        "mu_of_lambda",
        "mu_curve",
        "constant_profile_bound",
        "lambda_star_bracket",
        "strict_inequality_report",
    ],
    "eigensolver": ["inertia_count", "smallest_generalized_eigen", "concentration_fraction"],
    "minimizer": ["smooth_cutoff", "smooth_cutoff_deriv", "bubble_init", "constant_init", "minimize_quotient"],
    "forms": [
        "build_grid",
        "refine_grid",
        "assemble_forms",
        "assemble_lumped_weight",
        "tri_quadform",
        "tri_matvec",
        "hs_functional",
        "hs_gradient",
        "evaluate_quotient",
    ],
    "_kernels": ["negcount", "tridiag_solve", "power_moment", "power_moment_grad"],
    "bubble": ["bubble_value", "bubble_grad", "bubble_moments", "bubble_quotient", "pohozaev_residual"],
    "expansion": ["quotient_series", "theory_coefficient", "fit_expansion"],
    "hardy_refined": [
        "log_bubble_value",
        "build_log_grid",
        "dominant_term_sign",
        "flat_operator_residual",
        "curved_operator_residual",
        "improved_hardy_eigen",
        "h1_norm_scan",
    ],
}

# Work done per call, read from the arguments: matrix rows for the
# recurrences, cells for the power functional.
SIZE_OF = {
    "_kernels.negcount": lambda args: len(args[0]),
    "_kernels.tridiag_solve": lambda args: len(args[0]),
    "_kernels.power_moment": lambda args: len(args[1]),
    "_kernels.power_moment_grad": lambda args: len(args[1]),
}

EIGEN = "eigensolver.smallest_generalized_eigen"
MINIMIZE = "minimizer.minimize_quotient"
RESIDUAL_LIMIT = 1e-9  # the eigensolver's own convergence target


class Spans:
    """Spans in columns (a traced pass makes a few hundred thousand).

    Span ``i`` has a name, start and end times, the index of its parent span
    (-1 at the top), the job id and the work size of the call.  Spans are
    stored in the order they start, so the spans of one job are contiguous.
    """

    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.job = array("l")
        self.size = array("q")

    def __len__(self):
        return len(self.start)

    def name_id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def add(self, name, start, end, parent=-1, job=0, size=0) -> int:
        i = len(self.start)
        self.name.append(self.name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.job.append(job)
        self.size.append(size)
        return i

    def job_range(self, first_job: int, stop_job: int) -> range:
        """Indices of the spans of jobs ``first_job <= job < stop_job``."""
        return range(bisect_left(self.job, first_job), bisect_left(self.job, stop_job))


def solver_outcome(name, result):
    """``(iterations, fell_back, unconverged)`` for one solver result."""
    if name == EIGEN:
        fell_back = result.method == "subspace-fallback"
        return result.iterations, fell_back, fell_back or not (result.residual <= RESIDUAL_LIMIT)
    return result.iterations, False, not result.converged


class Instrument:
    """Wrappers over hardylab entry points.

    With ``trace=False`` only the two solvers are wrapped, and only their
    return values are inspected (the non-convergence hook that stays on in
    untraced runs).  With ``trace=True`` every entry point also records a
    span.
    """

    def __init__(self, trace: bool, entry_points=None):
        self.trace = trace
        self.entry_points = ENTRY_POINTS if entry_points is None else entry_points
        self.spans = Spans()
        self.outcomes: list[tuple] = []  # (name, iterations, fell_back, unconverged)
        self.absent: list[str] = []
        self.job = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def install(self, package: str = "hardylab"):
        self.absent = []
        modules = [m for n, m in list(sys.modules.items()) if n == package or n.startswith(package + ".")]
        for layer, names in self.entry_points.items():
            module = sys.modules.get(f"{package}.{layer}")
            for attr in names:
                full = f"{layer}.{attr}"
                original = getattr(module, attr, None) if module is not None else None
                if original is None:
                    self.absent.append(full)
                    continue
                if not self.trace and full not in (EIGEN, MINIMIZE):
                    continue
                wrapper = self._wrap(original, full)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original and (key == attr or not key.startswith("_")):
                            self._undo.append((mod, key, value))
                            setattr(mod, key, wrapper)
        return self

    def uninstall(self):
        for mod, key, value in reversed(self._undo):
            setattr(mod, key, value)
        self._undo.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, fn, name):
        outcomes = self.outcomes
        inspect = name in (EIGEN, MINIMIZE)
        if not self.trace:

            def observe(*args, **kwargs):
                result = fn(*args, **kwargs)
                outcomes.append((name, *solver_outcome(name, result)))
                return result

            return observe

        spans, stack, clock = self.spans, self._stack, time.perf_counter
        name_id = spans.name_id(name)
        size_of = SIZE_OF.get(name)
        col_name, col_start, col_end = spans.name, spans.start, spans.end
        col_parent, col_job, col_size = spans.parent, spans.job, spans.size

        def traced(*args, **kwargs):
            i = len(col_start)
            col_name.append(name_id)
            col_parent.append(stack[-1] if stack else -1)
            col_job.append(self.job)
            col_size.append(size_of(args) if size_of else 0)
            col_end.append(0.0)
            stack.append(i)
            col_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                col_end[i] = clock()
                stack.pop()
            if inspect:
                outcomes.append((name, *solver_outcome(name, result)))
            return result

        return traced


def self_times(spans: Spans) -> array:
    """Each span's duration minus the part of it its children cover.

    Children may overlap one another and may stick out of their parent;
    only the union of their intervals, clipped to the parent, is removed.
    Relies on spans being stored in the order they start.
    """
    n = len(spans)
    start, end, parent = spans.start, spans.end, spans.parent
    out = array("d", (end[i] - start[i] for i in range(n)))
    reach = array("d", start)  # how far each span's children have covered it
    for i in range(n):
        p = parent[i]
        if p >= 0:
            a, b = max(start[i], reach[p]), min(end[i], end[p])
            if b > a:
                out[p] -= b - a
                reach[p] = b
    return out


def count_under(spans: Spans, ancestor: str, name: str, indices=None) -> int:
    """Spans named ``name`` with a span named ``ancestor`` above them, among
    ``indices`` (all spans when None)."""
    if name not in spans.ids or ancestor not in spans.ids:
        return 0
    want, above = spans.ids[name], spans.ids[ancestor]
    names, parent = spans.name, spans.parent
    count = 0
    for i in range(len(spans)) if indices is None else indices:
        if names[i] != want:
            continue
        p = parent[i]
        while p >= 0:
            if names[p] == above:
                count += 1
                break
            p = parent[p]
    return count


def layer_table(spans: Spans, selves, indices=None) -> dict:
    """Per entry point: calls, summed size and summed self time, among
    ``indices`` (all spans when None).  ``selves`` is ``self_times(spans)``."""
    table = defaultdict(lambda: {"calls": 0, "size": 0, "self_s": 0.0})
    for i in range(len(spans)) if indices is None else indices:
        row = table[spans.names[spans.name[i]]]
        row["calls"] += 1
        row["size"] += spans.size[i]
        row["self_s"] += selves[i]
    return dict(table)


def write_spans(path, spans: Spans):
    """Store spans as gzipped CSV: id,name,start,end,parent,job,size."""
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as fh:
        fh.write("id,name,start,end,parent,job,size\n")
        names = spans.names
        for i in range(len(spans)):
            fh.write(
                f"{i},{names[spans.name[i]]},{spans.start[i]!r},{spans.end[i]!r},"
                f"{spans.parent[i]},{spans.job[i]},{spans.size[i]}\n"
            )
