"""Record reference.json: the checked output values of every workload at the
default seed, from one untraced pass each.

    python3 benchmarks/record_reference.py

Run it from the root of a source checkout, only when a change to the
program is meant to move the outputs; the output checks of ``run.py``
compare against this file at the default seed.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from checks import DEFAULT_SEED, REFERENCE_PATH
from run import BenchError, pass_context, spawn_pass
from workloads import WHY


def main() -> int:
    root = Path.cwd()
    reference = {}
    for workload in WHY:
        run_dir = root / ".bench_work" / f"record-{workload}"
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        ctx = pass_context(root, run_dir, workload, DEFAULT_SEED, smoke=False,
                           record=True)
        report = spawn_pass(0, False, ctx)
        bad = {j["name"]: j["problems"] for j in report["jobs"] if j["problems"]}
        if bad:
            raise BenchError(f"{workload}: jobs failed their checks: {bad}")
        reference[workload] = {j["name"]: j["values"] for j in report["jobs"]}
        print(f"{workload}: {len(report['jobs'])} jobs, wall {report['wall_s']:.2f} s")
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
