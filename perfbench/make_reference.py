#!/usr/bin/env python3
"""Write reference.json: the seed-0 answers of every workload, compared
against on every later seed-0 run.

    python3 perfbench/make_reference.py

Run it only on the commit whose answers are the reference; the file in the
repository holds the answers of the commit that introduced the benchmark.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def main():
    cli, kernels = run.load_program()
    harness.OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="reference-", dir=harness.OUT))
    reference = {}
    try:
        for workload in workloads.WORKLOADS:
            with tracing.Instrument(trace=False) as light:
                p = harness.Runner(workload, 0, "full", cli, light, None).run_pass(0, work)
            if p.failures:
                raise SystemExit(f"{workload}: answers fail their checks: {p.failures}")
            labels = [job.label for job in workloads.jobs(workload, 0, 0)]
            reference[workload] = {
                label: value
                for label, answer in zip(labels, p.answers)
                if (value := workloads.reference_values(label, answer))
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    reference["environment"] = harness.environment(kernels)
    harness.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {harness.REFERENCE}")


if __name__ == "__main__":
    main()
