"""Append-only run records: one JSON object per line, plus CSV companions
for anything plottable.

Every result key carries a provenance tag naming how the number was
obtained: "closed-form", "quadrature", "eigensolve", "minimize", "fit" or
"artifact-derived" (for quantities the underlying theory does not pin to a
formula, e.g. threshold brackets).  A ``diagnostics`` block beside the
results says how the numbers were computed: the kernel backend, the numpy
version and the kernel calls the record's work made (``definite_tests``,
``factorizations``, ``solves`` and ``evaluations`` of ``_kernels.COUNTS``,
counted from ``start_count``, which ``cli.main`` calls for each command, or
from the previous record, so each ``verify`` check counts its own); on
``solve`` and ``theorem2-check`` records also, under ``starts``, each
minimizer start's steps and stop reason.  It is not a result and carries no
provenance tags.
"""

from __future__ import annotations

import csv
import datetime as _dt
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import _kernels

__all__ = ["RunRecord", "write_record", "write_table", "default_out_dir", "start_count"]

ENV_OUT_DIR = "HARDYLAB_OUT"


def default_out_dir() -> Path:
    return Path(os.environ.get(ENV_OUT_DIR, "runs"))


_COUNTED = dict(_kernels.COUNTS)  # the tally where the next record's count starts


def start_count() -> None:
    """Count the next record's kernel calls from here."""
    _COUNTED.update(_kernels.COUNTS)


def _diagnostics() -> dict:
    """How this process computes: the kernel backend, the numpy version and
    the kernel calls since the count started, which starts it again."""
    calls = {k: n - _COUNTED[k] for k, n in _kernels.COUNTS.items()}
    start_count()
    return {"kernel_backend": _kernels.BACKEND, "numpy": np.__version__, **calls}


@dataclass
class RunRecord:
    command: str
    parameters: dict
    results: dict  # name -> value
    provenance: dict  # name -> tag; must cover every result key
    grid: dict = field(default_factory=dict)
    timestamp: str = ""
    diagnostics: dict = field(default_factory=_diagnostics)  # outside the provenance rule

    def __post_init__(self):
        if not self.timestamp:
            self.timestamp = _dt.datetime.now(_dt.timezone.utc).isoformat()
        missing = set(self.results) - set(self.provenance)
        if missing:
            raise ValueError(f"results without provenance tags: {sorted(missing)}")


def _append(path: Path, **kw):
    """``path`` opened for appending; its directory is made only if missing."""
    try:
        return path.open("a", encoding="utf-8", **kw)
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        return path.open("a", encoding="utf-8", **kw)


def write_record(record: RunRecord, out_dir: Path | str | None = None) -> Path:
    """Append one record to records.jsonl under the output directory."""
    path = (Path(out_dir) if out_dir is not None else default_out_dir()) / "records.jsonl"
    payload = {
        "command": record.command,
        "timestamp": record.timestamp,
        "parameters": record.parameters,
        "results": record.results,
        "diagnostics": record.diagnostics,
        "provenance": record.provenance,
        "grid": record.grid,
    }
    with _append(path) as fh:
        fh.write(json.dumps(payload, sort_keys=True) + "\n")
    return path


def write_table(name: str, header: list[str], rows, out_dir: Path | str | None = None) -> Path:
    """Append rows to a CSV companion file (header written once)."""
    path = (Path(out_dir) if out_dir is not None else default_out_dir()) / f"{name}.csv"
    with _append(path, newline="") as fh:
        writer = csv.writer(fh)
        if fh.tell() == 0:  # append mode opens at the end: an empty file is new
            writer.writerow(header)
        for row in rows:
            writer.writerow(row)
    return path
