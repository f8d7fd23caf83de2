"""Self-test of the benchmark at tiny sizes, to show that its gates are not vacuous.

    python3 perfbench/selftest.py

For every workload it checks that

1. a plain pass passes every job (fail ratio 0);
2. a corrupted expected digest raises the fail ratio;
3. a corrupted reference value raises the fail ratio;
4. count passes repeat exactly, twice with one job order and once with another;
5. a traced pass records calls for every layer the workload exercises, and
   the same call counts as the count pass;

and that BENCHMARK.json lists exactly the metrics and workloads run.py
reports.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import os
import sys

import tracing
import workloads
from run import END_TO_END, ROOT, Tally, count_gate, run_child

SIZE = "tiny"


def fail_ratio(workload, **kwargs) -> float:
    tally = Tally(workload, SIZE)
    tally.add(run_child(workload, 0, size=SIZE, **kwargs), "pass")
    return tally.failed / tally.attempted


def check_workload(workload) -> list[str]:
    errors = []
    if fail_ratio(workload) != 0:
        errors.append("plain pass failed")
    for corrupt in ("digest", "reference"):
        if fail_ratio(workload, corrupt=corrupt) == 0:
            errors.append(f"corrupted {corrupt} left the fail ratio at 0")
    counts = [run_child(workload, seed, mode="count", size=SIZE) for seed in (0, 0, 1)]
    traced = run_child(workload, 0, mode="trace", size=SIZE)
    if None in counts or traced is None:
        return errors + ["count or traced pass failed"]
    return errors + count_gate(workload, [r["counts"] for r in counts], [traced["calls"]])


def check_benchmark_json() -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        errors.append("workload names differ from workloads.WORKLOADS")
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != list(END_TO_END):
        errors.append("end_to_end metrics differ from run.END_TO_END")
    want = [{"name": n, "unit": u, "better": b} for n, u, b in tracing.per_layer_metrics()]
    if spec["per_layer"] != want:
        errors.append("per_layer metrics differ from tracing.per_layer_metrics()")
    return errors


def main() -> int:
    ok = True
    for name, errors in [("BENCHMARK.json", check_benchmark_json())] + [
        (w, check_workload(w)) for w in workloads.WORKLOADS
    ]:
        print(f"{'ok  ' if not errors else 'FAIL'} {name}" + "".join(f"\n     {e}" for e in errors))
        ok = ok and not errors
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
