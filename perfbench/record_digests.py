"""Record the sha256 digest of every job's output into digests.json.

    python3 perfbench/record_digests.py

Run it only on a commit whose outputs are known to be right: the digests are
the gate that makes a later change to any output count as a failed job.  Every
job's own cross-check must pass before its digest is recorded.
"""

from __future__ import annotations

import json
import os
import sys

from run import HERE, run_child
from workloads import SIZES, WORKLOADS


def main() -> int:
    table = {}
    for size in SIZES:
        for workload in WORKLOADS:
            result = run_child(workload, 0, size=size, no_digests=True)
            if result is None:
                print(f"{size} {workload}: pass failed", file=sys.stderr)
                return 1
            bad = {k: j["problems"] for k, j in result["jobs"].items() if j["problems"]}
            if bad:
                print(f"{size} {workload}: cross-checks failed: {bad}", file=sys.stderr)
                return 1
            table.setdefault(size, {})[workload] = {
                k: result["jobs"][k]["digest"] for k in sorted(result["jobs"])
            }
    with open(os.path.join(HERE, "digests.json"), "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
