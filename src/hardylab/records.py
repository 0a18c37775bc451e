"""Append-only run records: one JSON object per line, plus CSV companions
for anything plottable.

Every result key carries a provenance tag naming how the number was
obtained: "closed-form", "quadrature", "eigensolve", "minimize", "fit" or
"artifact-derived" (for quantities the underlying theory does not pin to a
formula, e.g. threshold brackets).  A ``diagnostics`` block beside the
results says how the numbers were computed (the kernel backend and the numpy
version); it is not a result and carries no provenance tags.
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

__all__ = ["RunRecord", "write_record", "write_table", "default_out_dir"]

ENV_OUT_DIR = "HARDYLAB_OUT"


def default_out_dir() -> Path:
    return Path(os.environ.get(ENV_OUT_DIR, "runs"))


def _diagnostics() -> dict:
    """How this process computes: the kernel backend and the numpy version."""
    return {"kernel_backend": _kernels.BACKEND, "numpy": np.__version__}


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


def write_record(record: RunRecord, out_dir: Path | str | None = None) -> Path:
    """Append one record to records.jsonl under the output directory."""
    out = Path(out_dir) if out_dir is not None else default_out_dir()
    out.mkdir(parents=True, exist_ok=True)
    path = out / "records.jsonl"
    payload = {
        "command": record.command,
        "timestamp": record.timestamp,
        "parameters": record.parameters,
        "results": record.results,
        "diagnostics": record.diagnostics,
        "provenance": record.provenance,
        "grid": record.grid,
    }
    with path.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True) + "\n")
    return path


def write_table(name: str, header: list[str], rows, out_dir: Path | str | None = None) -> Path:
    """Append rows to a CSV companion file (header written once)."""
    out = Path(out_dir) if out_dir is not None else default_out_dir()
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{name}.csv"
    new = not path.exists() or path.stat().st_size == 0
    with path.open("a", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        if new:
            writer.writerow(header)
        for row in rows:
            writer.writerow(row)
    return path
