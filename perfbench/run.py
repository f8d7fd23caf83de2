"""Benchmark driver for linkchi: end-to-end metrics per workload, or per-layer metrics.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one caller: its jobs run one after
another inside a fresh single-threaded child interpreter (``child.py``), and
the driver starts the next child only after the previous one has exited.  One
child is one pass over every job of the workload, in an order permuted by
``--seed`` and the pass number; the set of jobs and the work they do are
fixed.  Passes repeat
until ``--seconds`` would be exceeded (at least three), and each metric is
the median over the passes of the run.

Every time is in reference seconds: a timer in the child runs a fixed
host-speed probe every few milliseconds, job times leave the probes out, and
each job's time is rescaled by how much slower or faster than its reference
duration the probes during and around it ran (``speed.py``).  The shared
host's speed drifts by a third within a second, which no run length or
median removes.  The raw medians are printed on the detail line.

``--trace 0`` prints the end-to-end metrics:

  setup_s      child start to first job ready (interpreter start, import
               linkchi, job list with its reference values), median of passes
  wall_s       first job start to last job end, median of passes
  job_p50_s    median over jobs of each job's median latency
  job_tail_s   latency at the highest percentile with at least ten jobs
               beyond it (workloads with >= 20 jobs); the slowest job's
               latency when a workload has fewer jobs
  peak_rss_mb  the child's peak resident set, median of passes
  ok_ratio     jobs passed / jobs attempted (1 - fail ratio; a metric that
               can be 0 cannot carry a relative bound)

``--trace 1`` alternates untraced and traced passes for ``--seconds``, then
makes two count passes with different job orders, and prints the per-layer
metrics listed in ``tracing.per_layer_metrics``.  Counts must repeat exactly
across the two count passes and match the traced call counts, and every
layer the workload is declared to exercise must record calls.

A job fails when its cross-check finds a mismatch, when its output digest
differs from ``digests.json``, or when it raises.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  The exit code is 1 when any job failed or any gate failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
RUN_DEADLINE_S = 170  # every run, traced or not, ends well inside 180 s

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "1"),
)


def child_env() -> dict:
    """The pinned child environment: fixed hash seed, no truncation override."""
    env = dict(os.environ)
    env.pop("LINKCHI_T_MAX", None)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workload, seed, mode="plain", size="full", corrupt="none", deadline=None,
              no_digests=False):
    """Run one pass in a child; its result dict, or None if it failed to finish."""
    os.makedirs(OUT, exist_ok=True)
    tag = f"{workload}-{mode}-{os.getpid()}"
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--size", size, "--seed", str(seed), "--mode", mode, "--corrupt", corrupt,
           "--scratch", os.path.join(OUT, f"tmp-{tag}"),
           "--spans", os.path.join(OUT, f"spans-{workload}.json")]
    if no_digests:
        cmd.append("--no-digests")
    timeout = None if deadline is None else max(1.0, deadline - time.monotonic())
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"{workload} {mode} pass killed after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"{workload} {mode} pass exited with {proc.returncode}", file=sys.stderr)
        return None
    result = json.loads(stdout.strip().splitlines()[-1])
    result["raw_setup_s"] = result["ready"] - spawned
    result["setup_s"] = (result["raw_setup_s"] - result["setup_probes_s"]) * result["setup_factor"]
    return result


class Tally:
    """Jobs attempted and failed over every pass of a run, and the problems found."""

    def __init__(self, workload, size="full"):
        self.jobs = workloads.job_keys(workload, size)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, result, label):
        self.attempted += len(self.jobs)
        if result is None:
            self.failed += len(self.jobs)
            self.problems.append(f"{label}: pass did not finish")
            return
        for key, job in result["jobs"].items():
            if job["problems"]:
                self.failed += 1
                self.problems.extend(f"{label} {key}: {p}" for p in job["problems"])


def _passes(run_pass, seconds, min_passes):
    """Call run_pass(i) for i = 0, 1, ... until the next call would end after ``seconds``."""
    start = time.monotonic()
    results = []
    while True:
        t0 = time.monotonic()
        results.append(run_pass(len(results)))
        took = time.monotonic() - t0
        if results[-1] is None:
            break
        elapsed = time.monotonic() - start
        if len(results) >= min_passes and elapsed + took > seconds:
            break
        if elapsed + 2 * took > RUN_DEADLINE_S:
            break
    return results


def pass_seed(seed, i):
    """Job-order seed of pass i.  Each pass of a run takes another order, so
    the warm-up cost the first job of a fresh interpreter pays does not stay
    with one job, and drops out of the per-job medians."""
    return seed * 1000 + i


def job_latencies(results):
    """Each job's median latency over the passes."""
    return [statistics.median(r["jobs"][k]["s"] for r in results) for k in results[0]["jobs"]]


def tail(latencies):
    """(value, percentile): highest percentile with >= 10 jobs beyond it,
    or the slowest job when there are fewer than 20 jobs."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(workload, seed, seconds):
    tally = Tally(workload)
    deadline = time.monotonic() + RUN_DEADLINE_S
    results = _passes(lambda i: run_child(workload, pass_seed(seed, i), deadline=deadline),
                      seconds, MIN_PASSES)
    for i, r in enumerate(results):
        tally.add(r, f"pass {i}")
    done = [r for r in results if r is not None]
    metrics, details = {}, {"passes": len(results), "jobs": len(tally.jobs)}
    if done:
        lat = job_latencies(done)
        tail_s, tail_pct = tail(lat)
        metrics = {
            "setup_s": statistics.median(r["setup_s"] for r in done),
            "wall_s": statistics.median(r["wall_s"] for r in done),
            "job_p50_s": statistics.median(lat),
            "job_tail_s": tail_s,
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in done),
            "ok_ratio": (tally.attempted - tally.failed) / tally.attempted,
        }
        details.update(job_tail_percentile=tail_pct, python=done[0]["python"], qq=done[0]["qq"],
                       pass_wall_s=[round(r["wall_s"], 4) for r in done],
                       raw_wall_s=statistics.median(r["raw_wall_s"] for r in done),
                       raw_setup_s=statistics.median(r["raw_setup_s"] for r in done),
                       probe_s=statistics.median(r["probe_s"] for r in done),
                       probes=sum(r["probes"] for r in done))
    units = dict(END_TO_END)
    return metrics, units, tally, details


def count_gate(workload, counted, traced_calls):
    """Problems with the work counts of a workload's count and traced passes.

    Counts must repeat exactly across passes (whatever their job order),
    traced call counts must equal counted ones, and every layer the
    workload exercises must record calls.
    """
    problems = []
    for other in counted[1:]:
        diff = sorted(k for k in set(counted[0]) | set(other) if counted[0].get(k) != other.get(k))
        if diff:
            problems.append(f"counts differ between passes: {diff}")
    for calls in traced_calls:
        for layer, n in calls.items():
            if counted[0].get(f"{layer}.calls") != n:
                problems.append(f"{layer}: traced {n} calls, counted {counted[0].get(f'{layer}.calls')}")
    for layer in workloads.EXERCISED[workload]:
        if not counted[0].get(f"{layer}.calls"):
            problems.append(f"{layer}: no calls recorded, but {workload} exercises it")
    return problems


def per_layer(workload, seed, seconds):
    tally = Tally(workload)
    deadline = time.monotonic() + RUN_DEADLINE_S

    def pair(i):
        plain = run_child(workload, pass_seed(seed, i), deadline=deadline)
        traced = run_child(workload, pass_seed(seed, i), mode="trace", deadline=deadline)
        return None if plain is None or traced is None else (plain, traced)

    pairs = _passes(pair, seconds, 1)
    counts = [run_child(workload, s, mode="count", deadline=deadline) for s in (seed, seed + 1)]
    for i, p in enumerate(pairs):
        for r, label in zip(p or (None, None), ("plain", "traced")):
            tally.add(r, f"{label} pass {i}")
    for r, s in zip(counts, (seed, seed + 1)):
        tally.add(r, f"count pass (seed {s})")
    pairs = [p for p in pairs if p is not None]
    if not pairs or None in counts:
        return {}, {}, tally, {}

    tally.problems += count_gate(workload, [r["counts"] for r in counts],
                                 [t["calls"] for _p, t in pairs])
    count = counts[0]["counts"]
    metrics = {}
    for layer in tracing.LAYERS:
        metrics[f"{layer}.calls"] = count.get(f"{layer}.calls", 0)
        metrics[f"{layer}.self_s"] = statistics.median(
            t["self_s"].get(layer, 0.0) for _p, t in pairs)
    for key in ("series.mul.pairs", "series.mul.terms_out", "series.peak_terms",
                "graphs.classes", "graphs.classes_killed"):
        metrics[key] = count.get(key, 0)
    pairs_n = count.get("series.mul.pairs", 0)
    metrics["series.mul.yield"] = metrics["series.mul.terms_out"] / pairs_n if pairs_n else 0.0
    canon = count.get("graphs.canonical_form.calls", 0)
    metrics["graphs.canonical_form.yield"] = metrics["graphs.classes"] / canon if canon else 0.0
    rationals = counts[0]["rationals"]
    if rationals:
        for key in ("rationals.mul.count", "rationals.add.count"):
            metrics[key] = count.get(key, 0)
    metrics["trace.overhead_s"] = (statistics.median(t["wall_s"] for _p, t in pairs)
                                   - statistics.median(p["wall_s"] for p, _t in pairs))
    metrics["trace.uncovered_s"] = statistics.median(t["uncovered_s"] for _p, t in pairs)
    units = {name: unit for name, unit, _better in tracing.per_layer_metrics()}
    details = {"pairs": len(pairs), "rational_counts": "recorded" if rationals else "unavailable",
               "python": pairs[0][0]["python"], "qq": pairs[0][0]["qq"]}
    return metrics, units, tally, details


def environment():
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    return {"nproc": os.cpu_count(), "loadavg": os.getloadavg(), "git_sha": sha,
            "driver_python": sys.version.split()[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "linkchi", "__init__.py")):
        print(f"error: no linkchi sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    env = environment()
    measure = per_layer if args.trace else end_to_end
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed, ok = {}, 0, 0, True
    for name in names:
        got, units, tally, details = measure(name, args.seed, args.seconds)
        fail_ratio = tally.failed / tally.attempted
        ok = ok and not tally.problems and bool(got)
        attempted += tally.attempted
        failed += tally.failed
        prefix = f"{name}." if len(names) > 1 else ""
        for key, value in got.items():
            print(f"{name} {key} {value:.6g} {units[key]}")
            metrics[prefix + key] = {"value": value, "unit": units[key]}
        print(json.dumps({"workload": name, "fail_ratio": fail_ratio, "env": env,
                          "problems": tally.problems[:20], **details}))
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
