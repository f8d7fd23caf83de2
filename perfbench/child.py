"""One pass of one workload, in a fresh single-threaded interpreter.

    python perfbench/child.py --workload grid --seed 3 --mode plain

Imports linkchi from ``src/`` of the checkout, builds the job list with its
reference values, runs every job once in the order the seed gives, and
prints one JSON object as the last line of standard output.  The driver
(``run.py``) starts one child at a time, so every pass starts with empty
module caches, as a command-line invocation does.

Modes: ``plain`` measures with no wrappers; ``trace`` records spans
(``--spans`` names the file they are written to); ``count`` records exact
work counts.

Job times leave out the host-speed probes that a timer runs every few
milliseconds (``speed.py``), and are reported raw (``raw_s``) and in
reference seconds (``s``); ``wall_s`` is the sum of the rescaled job times.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS = os.path.join(HERE, "digests.json")


def _digests(workload, size, corrupt):
    with open(DIGESTS) as f:
        table = dict(json.load(f).get(size, {}).get(workload, {}))
    if corrupt == "digest" and table:
        table[next(iter(table))] = "0" * 64
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--seed", type=int, required=True, help="permutes the job order only")
    parser.add_argument("--mode", choices=("plain", "trace", "count"), default="plain")
    parser.add_argument("--corrupt", choices=("none", "digest", "reference"), default="none")
    parser.add_argument("--spans", default=None, help="file the trace mode writes spans to")
    parser.add_argument("--scratch", required=True, help="directory for job output files")
    parser.add_argument("--no-digests", action="store_true", help="skip the digest gate (recording)")
    args = parser.parse_args(argv)

    # Host-speed probes run from the start of the child (speed.py); the count
    # mode takes none, because its Fraction wrappers would count them.
    import speed
    sampler = None
    if args.mode != "count":
        sampler = speed.Sampler()
        sampler.start()
    net_ns = sampler.net_ns if sampler else time.perf_counter_ns
    started = net_ns()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import tracing
    import workloads
    from linkchi.rationals import QQ

    recorder = None
    rationals = None
    if args.mode == "trace":
        recorder = tracing.SpanRecorder(clock=net_ns)
        tracing.install(recorder.wrap)
    elif args.mode == "count":
        recorder = tracing.CountRecorder()
        tracing.install(recorder.wrap)
        rationals = tracing.install_rational_counts(recorder)

    os.makedirs(args.scratch, exist_ok=True)
    jobs = workloads.build(args.workload, args.size, args.scratch, args.corrupt == "reference")
    digests = {} if args.no_digests else _digests(args.workload, args.size, args.corrupt)
    order = list(jobs)
    random.Random(args.seed).shuffle(order)
    if recorder is not None:
        recorder.reset()
    ready = time.monotonic()
    ready_ns = net_ns()
    setup_probes_s = sampler.spent_ns / 1e9 if sampler else 0.0

    outputs = {}
    for key in order:
        n0 = net_ns()
        try:
            text, problems = jobs[key]()
        except (Exception, SystemExit) as exc:  # a failing job must not end the pass
            traceback.print_exc()
            text, problems = None, [f"raised {type(exc).__name__}: {exc}"]
        outputs[key] = (n0, net_ns(), text, problems)
    if sampler:
        sampler.stop()

    def reference_s(n0, n1):
        return sampler.reference_s(n0, n1) if sampler else (n1 - n0) / 1e9

    results = {}
    for key, (n0, n1, text, problems) in outputs.items():
        digest = None if text is None else hashlib.sha256(text.encode()).hexdigest()
        if not args.no_digests and text is not None and digest != digests.get(key):
            problems = problems + ["output digest differs from the recorded one"]
        results[key] = {"raw_s": (n1 - n0) / 1e9, "s": reference_s(n0, n1), "problems": problems,
                        "digest": digest}
    first = min(n0 for n0, *_ in outputs.values())
    last = max(n1 for _, n1, *_ in outputs.values())

    out = {
        "ready": ready,
        # probe time in set-up, and the factor that turns the rest into reference seconds
        "setup_probes_s": setup_probes_s,
        "setup_factor": sampler.factor(started, ready_ns) if sampler else 1.0,
        # first job start to last job end, without the probes
        "raw_wall_s": (last - first) / 1e9,
        "wall_s": sum(r["s"] for r in results.values()),
        "probes": len(sampler.took) if sampler else 0,
        "probe_s": statistics.median(sampler.took) if sampler else None,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": results,
        "python": sys.version.split()[0],
        "qq": QQ.__module__,
    }
    if args.mode == "trace":
        calls, self_s, root_s = recorder.aggregate()
        # spans are read on the net clock and rescaled by the whole pass's factor
        factor = sampler.factor(first, last)
        out.update(calls=calls, self_s={k: v * factor for k, v in self_s.items()},
                   uncovered_s=(out["raw_wall_s"] - root_s) * factor)
        if args.spans:
            recorder.dump(args.spans)
    elif args.mode == "count":
        out.update(counts=dict(recorder.counts), rationals=rationals)
    shutil.rmtree(args.scratch, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
