#!/usr/bin/env python3
"""Compare benchmark results of a parent commit and a change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR
    python3 perfbench/compare.py --summary DIR

Each directory holds the result files that ``run.py`` wrote (it searches
them recursively).  For every workload and end-to-end metric of
``BENCHMARK.json`` the comparison prints each side's median and quartiles,
the share of pairs the change won, and a verdict:

- improved: at least ten pairs, the change wins at least nine tenths of
  them (ties count for neither side), the medians differ by more than the
  parent's quartile distance, and no more jobs failed than at the parent;
- worse: the change's median is worse than the parent's by more than the
  metric's bound;
- unresolved: the parent's own quartile distance is wider than the bound
  and not every change run reads better than every parent run;
- unchanged: otherwise.

Runs pair up by seed when both sides ran the same seeds, otherwise in the
order they were made.  ``--summary`` prints the medians and quartiles of one
directory as JSON, with the wall times before the speed factor (traced runs
add the tracing overhead and the per-layer medians).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory) -> dict:
    """``{workload: {"plain": [result, ...], "traced": [result, ...]}}``."""
    out: dict = {}
    for path in sorted(Path(directory).rglob("*.json")):
        try:
            r = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if not isinstance(r, dict) or "workload" not in r or "metrics" not in r:
            continue
        side = out.setdefault(r["workload"], {"plain": [], "traced": []})
        side["traced" if r["trace"] else "plain"].append(r)
    for side in out.values():
        for runs in side.values():
            runs.sort(key=lambda r: (r["seed"], r["started"]))
    return out


def spread(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pairs(parent_runs, change_runs):
    by_seed_p = {r["seed"]: r for r in parent_runs}
    by_seed_c = {r["seed"]: r for r in change_runs}
    if len(by_seed_p) == len(parent_runs) and by_seed_p.keys() == by_seed_c.keys():
        return [(by_seed_p[s], by_seed_c[s]) for s in sorted(by_seed_p)]
    return list(zip(parent_runs, change_runs))


def verdict(p_vals, c_vals, matched, better, bound, p_failed, c_failed):
    sign = 1.0 if better == "higher" else -1.0
    q1, med_p, q3 = spread(p_vals)
    _, med_c, _ = spread(c_vals)
    wins = sum(1 for a, b in matched if sign * (b - a) > 0)
    n = len(matched)
    all_better = all(sign * (c - p) > 0 for c in c_vals for p in p_vals)
    if n >= 10 and wins >= 0.9 * n and sign * (med_c - med_p) > (q3 - q1) and c_failed <= p_failed:
        return "improved", wins, n
    if sign * (med_p - med_c) > bound * abs(med_p):
        return "worse", wins, n
    if (q3 - q1) > bound * abs(med_p) and not all_better:
        return "unresolved", wins, n
    return "unchanged", wins, n


def compare(parent_dir, change_dir, benchmark=BENCHMARK):
    spec = json.loads(Path(benchmark).read_text())
    parent, change = load(parent_dir), load(change_dir)
    rows = []
    for wl in [w["name"] for w in spec["workloads"]]:
        p_runs = parent.get(wl, {}).get("plain", [])
        c_runs = change.get(wl, {}).get("plain", [])
        if not p_runs or not c_runs:
            rows.append((wl, "-", "-", "-", "-", "-", f"missing runs (parent {len(p_runs)}, change {len(c_runs)})"))
            continue
        matched_runs = pairs(p_runs, c_runs)
        p_failed = sum(r["failed"] for r in p_runs)
        c_failed = sum(r["failed"] for r in c_runs)
        for m in spec["end_to_end"]:
            name = m["name"]
            p_vals = [r["metrics"][name]["value"] for r in p_runs]
            c_vals = [r["metrics"][name]["value"] for r in c_runs]
            matched = [(a["metrics"][name]["value"], b["metrics"][name]["value"]) for a, b in matched_runs]
            v, wins, n = verdict(p_vals, c_vals, matched, m["better"], m["bound"], p_failed, c_failed)
            rows.append((wl, name, m["unit"], spread(p_vals), spread(c_vals), f"{wins}/{n}", v))
    return rows


def _fmt(q):
    if isinstance(q, str):
        return q
    q1, med, q3 = q
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def summary(directory) -> dict:
    out = {}
    for wl, side in load(directory).items():
        entry = {}
        if side["plain"]:
            runs = side["plain"]
            entry["runs"] = len(runs)
            entry["seeds"] = [r["seed"] for r in runs]
            entry["failed"] = sum(r["failed"] for r in runs)
            entry["end_to_end"] = {}
            for name, m in runs[0]["metrics"].items():
                q1, med, q3 = spread([r["metrics"][name]["value"] for r in runs])
                entry["end_to_end"][name] = {"median": med, "q1": q1, "q3": q3, "unit": m["unit"]}
            entry["wall_s"] = {}
            for name in runs[0]["wall"]:
                q1, med, q3 = spread([r["wall"][name] for r in runs])
                entry["wall_s"][name] = {"median": med, "q1": q1, "q3": q3}
            q1, med, q3 = spread([r["speed_factor"] for r in runs])
            entry["speed_factor"] = {"median": med, "q1": q1, "q3": q3}
            entry["passes_per_run"] = [r["passes"] for r in runs]
        if side["traced"]:
            runs = side["traced"]
            q1, med, q3 = spread([r["metrics"]["trace.overhead_ratio"]["value"] for r in runs])
            entry["tracing_overhead"] = {"median": med, "q1": q1, "q3": q3, "runs": len(runs)}
            entry["traced_self_time_share"] = runs[-1].get("shares")
            entry["per_layer"] = {
                name: statistics.median(r["metrics"][name]["value"] for r in runs) for name in runs[0]["metrics"]
            }
        out[wl] = entry
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description="Compare benchmark results of a parent and a change.")
    parser.add_argument("dirs", nargs="+", help="PARENT_DIR CHANGE_DIR, or one DIR with --summary")
    parser.add_argument("--summary", action="store_true")
    args = parser.parse_args(argv)
    if args.summary:
        if len(args.dirs) != 1:
            parser.error("--summary takes one directory")
        print(json.dumps(summary(args.dirs[0]), indent=1, sort_keys=True))
        return 0
    if len(args.dirs) != 2:
        parser.error("give PARENT_DIR and CHANGE_DIR")
    header = ("workload", "metric", "unit", "parent median [q1, q3]", "change median [q1, q3]", "pairs won", "verdict")
    rows = [header] + [(r[0], r[1], r[2], _fmt(r[3]), _fmt(r[4]), r[5], r[6]) for r in compare(*args.dirs)]
    widths = [max(len(str(r[i])) for r in rows) for i in range(len(header))]
    for r in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)).rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
