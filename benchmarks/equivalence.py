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

A change that moves numbers on purpose states a bar per number: ``--bar
KEY=REL`` (repeatable) lets every value named KEY change by at most REL,
relative to the larger magnitude of the two.  KEY names a float in a
record's ``results``, a CSV column (by its header) and a stdout value
written ``KEY = v`` or ``KEY=v``; each such value is masked before the
answers are compared and its change is measured apart.  The summary gives,
per command whose results differ only in barred values, each key it
carries as "identical" or as its largest relative change (with the
largest absolute one).

Usage:
  python benchmarks/equivalence.py --baseline SRC [--src SRC] [--bar KEY=REL ...]

Exits 1 when any answer differs, beyond the bars with ``--bar``: a barred
value that changes by more than its bar, any other difference (the kernel
counts included), or a command whose answers differ although none of its
barred values changed (the same number written with other digits or bits).
"""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import re
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


# a float as the CLI and ``repr`` write it, including inf and nan
_FLOAT = r"[-+]?(?:(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][-+]?\d+)?|inf|nan)"
_MASK = "<barred>"


def _is_hex_float(value) -> bool:
    """Whether ``value`` is a float as ``_hex`` writes it."""
    try:
        return isinstance(value, str) and float.fromhex(value).hex() == value
    except ValueError:
        return False


def _masked(results: dict, keys) -> tuple[dict, dict]:
    """``results`` with every value of a barred key replaced by _MASK, and
    those values by key, in the order they occur."""
    values = {key: [] for key in keys}
    out = dict(results)
    stdout = out.get("stdout", "")
    for key in keys:

        def take(match, key=key):
            values[key].append(float(match.group(1)))
            return f"{key}={_MASK}"

        stdout = re.sub(rf"(?<![\w.]){re.escape(key)}\s*=\s*({_FLOAT})(?![\w.])", take, stdout)
    out["stdout"] = stdout
    for name, part in results.items():
        if name == "records.jsonl":
            out[name] = records = []
            for record in part:
                if not isinstance(record.get("results"), dict):
                    records.append(record)
                    continue
                found = dict(record["results"])
                for key in keys:
                    if _is_hex_float(found.get(key)):
                        values[key].append(float.fromhex(found[key]))
                        found[key] = _MASK
                records.append({**record, "results": found})
        elif name.endswith(".csv") and part:
            columns = [j for j, head in enumerate(part[0]) if head in values]
            out[name] = rows = [part[0]]
            for row in part[1:]:
                row = list(row)
                for j in columns:
                    if j < len(row) and re.fullmatch(_FLOAT, row[j]):
                        values[part[0][j]].append(float(row[j]))
                        row[j] = _MASK
                rows.append(row)
    return out, values


def _change(new: float, old: float) -> tuple[float, float]:
    """(relative, absolute) change from ``old`` to ``new``: |new - old| over
    the larger magnitude, 0 for equal values and inf where a NaN or an
    infinity changes."""
    if new == old or (math.isnan(new) and math.isnan(old)):
        return 0.0, 0.0
    diff = abs(new - old)
    if not math.isfinite(diff):
        return math.inf, math.inf
    return diff / max(abs(new), abs(old)), diff


def _barred(new: dict, old: dict, keys):
    """The parts of two ``results`` that differ outside the barred values,
    and per key carried, the largest (relative, absolute) change of its
    values, None where they are identical."""
    (a, a_values), (b, b_values) = _masked(new, keys), _masked(old, keys)
    parts = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    changes = {}
    for key in keys:
        pairs = list(zip(a_values[key], b_values[key]))
        if pairs and not parts:  # equal masked answers carry their values in the same places
            worst = max((_change(x, y) for x, y in pairs), key=lambda c: c[0])
            changes[key] = worst if worst[0] or any(x.hex() != y.hex() for x, y in pairs) else None
    return parts, changes


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
        _kernels._PTTRF = _kernels._PTTRS = _kernels._GTSV = None
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


def compare(src: str, baseline: str, argvs=None, backends=BACKENDS, bars=None) -> dict:
    """For each backend, the commands whose ``results`` and whose
    ``diagnostics`` differ between the two trees, each as (argv, the parts
    that differ).  With ``bars`` ({key: rel}), results that differ only in
    barred values go to ``bars`` instead, each as (argv, {key: (relative,
    absolute) largest change, or None where identical}) for the keys it
    carries."""
    argvs = commands() if argvs is None else [list(a) for a in argvs]
    report = {}
    for backend in backends:
        procs = [_run(src, backend, argvs), _run(baseline, backend, argvs)]
        new, old = (_answers(p, s) for p, s in zip(procs, (src, baseline)))
        report[backend] = {"commands": len(argvs), "results": [], "diagnostics": []}
        if bars:
            report[backend]["bars"] = []
        for argv, a, b in zip(argvs, new, old):
            parts = sorted(k for k in a["results"].keys() | b["results"].keys() if a["results"].get(k) != b["results"].get(k))
            if parts and bars:
                parts, changes = _barred(a["results"], b["results"], bars)
                if not parts:
                    report[backend]["bars"].append((argv, changes))
            if parts:
                report[backend]["results"].append((argv, parts))
            if a["diagnostics"] != b["diagnostics"]:
                report[backend]["diagnostics"].append((argv, ["diagnostics"]))
    return report


def identical(report: dict) -> bool:
    return not any(r["results"] or r["diagnostics"] or r.get("bars") for r in report.values())


def within_bars(report: dict, bars: dict) -> bool:
    """No difference but barred values, each within its bar, and none in a
    command whose barred values all stayed identical."""
    return not any(r["results"] or r["diagnostics"] for r in report.values()) and all(
        any(c is not None for c in changes.values())
        and all(c is None or c[0] <= bars[key] for key, c in changes.items())
        for r in report.values()
        for _, changes in r.get("bars", [])
    )


def _bar(text: str) -> tuple[str, float]:
    """``--bar KEY=REL`` as (KEY, REL), REL a number >= 0."""
    key, sep, rel = text.partition("=")
    try:
        value = float(rel)
    except ValueError:
        value = math.nan
    if not (sep and key and value >= 0.0):
        raise argparse.ArgumentTypeError(f"expected KEY=REL with REL >= 0, got {text!r}")
    return key, value


def _describe(changes: dict, bars: dict) -> str:
    """Per key, "identical" or its largest changes, marked where beyond the bar."""
    words = []
    for key, c in changes.items():
        if c is None:
            words.append(f"{key} identical")
        else:
            beyond = f" BEYOND {bars[key]:.3g}" if c[0] > bars[key] else ""
            words.append(f"{key} {c[0]:.3g} relative ({c[1]:.3g} absolute){beyond}")
    if all(c is None for c in changes.values()):
        words.append("but the answers differ")
    return ", ".join(words)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"), help="source tree of the change (default: this checkout)")
    parser.add_argument("--baseline", help="source tree to compare against, e.g. a parent checkout's src")
    parser.add_argument(
        "--bar",
        type=_bar,
        action="append",
        default=[],
        metavar="KEY=REL",
        help="let every value named KEY change by at most REL, relative (repeatable)",
    )
    parser.add_argument("--worker", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--backend", choices=BACKENDS, default="lapack", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker is not None:
        worker(args.worker, args.backend)
        return
    if args.baseline is None:
        parser.error("--baseline is required")
    bars = dict(args.bar)
    report = compare(args.src, args.baseline, bars=bars)
    for backend, r in report.items():
        for kind in ("results", "diagnostics"):
            for argv, parts in r[kind]:
                print(f"DIFFERS {backend} {kind}: {' '.join(argv)}: {', '.join(parts)}")
        for argv, changes in r.get("bars", []):
            print(f"BARRED {backend}: {' '.join(argv)}: {_describe(changes, bars)}")
        n = r["commands"]
        barred = f", barred on {len(r['bars'])}" if bars else ""
        print(
            f"{backend}: {n} commands, results identical on {n - len(r['results']) - len(r.get('bars', []))}"
            f"{barred}, diagnostics identical on {n - len(r['diagnostics'])}"
        )
    sys.exit(0 if within_bars(report, bars) else 1)


if __name__ == "__main__":
    main()
