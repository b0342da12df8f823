"""One workload process: set up, run the closed loop, print one JSON line.

Started by run.py with the environment pinned and `src` on PYTHONPATH.
Modes:
  setup  set up (import, config generation, one warm-up report) and
         report the set-up time only;
  run    set up, then send configs one at a time through
         coarsehom.cli.run_experiment for --seconds, checking each
         report; then run the defect probes;
  trace  like run, but every config runs twice in a row, once with the
         layer wrappers installed and once without (the order
         alternates), so the traced spans and the tracing overhead come
         from the same reports at the same moment.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time

from expect import check
from workloads import DEFECT_PROBES, WARMUP, configs


def _timed_report(cli, config):
    """(seconds, failure kind or None) for one report."""
    t0 = time.perf_counter()
    try:
        report = cli.run_experiment(config)
    except Exception as exc:  # a raising report is a failed report
        return time.perf_counter() - t0, f"raised {type(exc).__name__}"
    elapsed = time.perf_counter() - t0
    return elapsed, check(config, report)


def _probe(cli):
    """Run the known-defect configs; count how many reproduce each."""
    out = []
    for probe in DEFECT_PROBES:
        kind, needle = probe["error"]
        reproduced, other = 0, {}
        for config in probe["configs"]:
            try:
                report = cli.run_experiment(config)
            except Exception as exc:
                if type(exc).__name__ == kind and needle in str(exc):
                    reproduced += 1
                else:
                    name = f"raised {type(exc).__name__}"
                    other[name] = other.get(name, 0) + 1
                continue
            mismatch = check(config, report)
            if mismatch:
                other[mismatch] = other.get(mismatch, 0) + 1
        out.append({"defect": probe["defect"], "summary": probe["summary"],
                    "attempted": len(probe["configs"]),
                    "reproduced": reproduced, "other": other})
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"),
                    required=True)
    ap.add_argument("--launched", type=float, required=True,
                    help="parent's time.perf_counter() just before spawn")
    args = ap.parse_args()

    import coarsehom.cli as cli
    todo = configs(args.workload, args.seed)
    cli.run_experiment(dict(WARMUP[args.workload]))
    # perf_counter is CLOCK_MONOTONIC on Linux, shared across processes
    setup_s = time.perf_counter() - args.launched
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer
        tracer = Tracer()

    latencies, failures = [], {}
    traced_s = untraced_s = 0.0
    cpu0 = time.process_time()
    start = time.perf_counter()
    deadline = start + args.seconds
    i = 0
    while time.perf_counter() < deadline:
        config = todo[i % len(todo)]
        if tracer is None:
            elapsed, bad = _timed_report(cli, config)
            # a failed report misses every latency limit
            latencies.append(math.inf if bad else elapsed)
            results = [bad]
        else:
            results = []
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if traced:
                    tracer.report_id = i
                    tracer.install()
                elapsed, bad = _timed_report(cli, config)
                if traced:
                    tracer.uninstall()
                    traced_s += elapsed
                else:
                    untraced_s += elapsed
                results.append(bad)
        for bad in results:
            if bad:
                failures[bad] = failures.get(bad, 0) + 1
        i += 1
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu0

    probes = _probe(cli)
    import numpy
    result = {
        "setup_s": setup_s,
        "wall_s": wall,
        "cpu_s": cpu,
        "latencies": latencies,
        "attempted": i if tracer is None else 2 * i,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "probes": probes,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }
    if tracer is not None:
        metrics = tracer.metrics(i)
        metrics["trace.reports_per_s_traced"] = (i / traced_s, "1/s")
        metrics["trace.reports_per_s_untraced"] = (i / untraced_s, "1/s")
        metrics["trace.overhead"] = (traced_s / untraced_s - 1.0, "1")
        result["layers"] = metrics
        out_dir = os.path.join(os.getcwd(), ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"spans-{args.workload}.tsv")
        result["spans_written"] = tracer.write_spans(path)
        result["spans_path"] = os.path.relpath(path)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
