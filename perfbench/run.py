"""Benchmark for coarsehom: closed-loop workloads through the CLI entry.

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload W --seed N --seconds S --repeat K
  python3 perfbench/run.py --workload W --seed N --seconds S --repeat K --sets 2

One client, one process, one thread: a worker process sends the seeded
configs of workload W one at a time through
`coarsehom.cli.run_experiment`, the path `coarsehom run` takes, checks
every report against an independent expectation (expect.py) and stops
after S seconds.  With --trace 0 it prints the end-to-end metrics; with
--trace 1 a separate traced run prints per-layer metrics and the
tracing overhead.  --repeat K runs the untraced benchmark K times with
seeds N..N+K-1 and prints the median, quartiles and percentile sample
counts of every metric, flagging any percentile that has fewer than ten
samples beyond it or sits where neighbouring ranks jump in cost.  With
--sets 2 it makes two sets of K runs (seeds N..N+K-1 and N+K..N+2K-1),
alternating between them run by run so host drift falls on both alike,
and checks them against the bounds in BENCHMARK.json: each spread
(setup_s's excepted) within its bound, and no median of the second set
worse than the first's by more than the bound.

Every worker runs with PYTHONHASHSEED=0, COARSEHOM_CAP unset and numpy's
thread pools at one thread.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
See NOTES.md for the workloads, the layer map and the known defects.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

SETUP_GROUPS = 3      # setup_s is the median over groups of set-ups
SETUP_GROUP = 3       # of the fastest set-up in each group
MIN_BEYOND = 10       # samples a reported percentile needs beyond it
JUMP_LIMIT = 1.3      # cost ratio across +-2% of ranks that counts as a jump
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


def pinned_env():
    env = dict(os.environ)
    env.pop("COARSEHOM_CAP", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.path.join(os.getcwd(), "src")
    for var in _THREAD_VARS:
        env[var] = "1"
    return env


def git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _worker(env, workload, seed, seconds, mode, timeout):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--mode", mode, "--launched"]
    cmd.append(repr(time.perf_counter()))
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker did not finish in {timeout} s")
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, q):
    """Nearest-rank percentile of sorted values, with the sample count
    beyond it and the cost ratio across the neighbouring ranks."""
    n = len(values)
    k = max(1, math.ceil(q * n))
    w = max(2, n // 50)
    lo, hi = values[max(k - 1 - w, 0)], values[min(k - 1 + w, n - 1)]
    return {"value": values[k - 1], "n": n, "beyond": n - k,
            "jump": hi / lo if lo > 0 else math.inf}


def setup_estimate(setups):
    """Median over consecutive groups of set-ups of each group's fastest.

    Host contention only ever adds time to a set-up, so the fastest of a
    few launches is the steadiest sample; the median of those samples
    keeps one lucky launch from deciding the metric."""
    groups = [setups[i:i + SETUP_GROUP]
              for i in range(0, len(setups), SETUP_GROUP)]
    return statistics.median(min(g) for g in groups)


def run_once(workload, seed, seconds, trace):
    """One benchmark run; returns metrics and the facts behind them."""
    if not os.path.isfile(os.path.join("src", "coarsehom", "cli.py")):
        raise BenchError("no src/coarsehom/cli.py here: run from the root "
                         "of a coarsehom checkout")
    env = pinned_env()
    # byte-compile first so no set-up sample pays for it
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    os.path.join("src", "coarsehom")], env=env, check=True,
                   capture_output=True, timeout=120)
    timeout = seconds + 90
    if trace:
        res = _worker(env, workload, seed, seconds, "trace", timeout)
        setups = [res["setup_s"]]
    else:
        # set-ups before and after the measured run, so that setup_s
        # spans the run rather than one moment of it
        def setup():
            return _worker(env, workload, seed, seconds, "setup",
                           60)["setup_s"]

        total = SETUP_GROUPS * SETUP_GROUP
        setups = [setup() for _ in range(total // 2)]
        res = _worker(env, workload, seed, seconds, "run", timeout)
        setups.append(res["setup_s"])
        setups += [setup() for _ in range(total - len(setups))]
    failed = sum(res["failures"].values())
    out = {"workload": workload, "seed": seed, "trace": trace, "res": res,
           "failed": failed, "setups": setups,
           "correct": failed == 0
           and not any(p["other"] for p in res["probes"])}
    if trace:
        out["metrics"] = res["layers"]
        return out
    lat = sorted(res["latencies"])
    out["p50"] = percentile(lat, 0.5)
    out["p90"] = percentile(lat, 0.9)
    out["metrics"] = {
        "reports_per_s": ((len(lat) - failed) / res["wall_s"], "1/s"),
        "report_s.p50": (out["p50"]["value"], "s"),
        "report_s.p90": (out["p90"]["value"], "s"),
        "setup_s": (setup_estimate(setups), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    return out


def _env_line(res):
    return (f"env: git {git_sha()}  nproc {len(os.sched_getaffinity(0))}/"
            f"{os.cpu_count()}  python {res['python']}  numpy "
            f"{res['numpy']}  PYTHONHASHSEED={res['pythonhashseed']}  "
            f"numpy threads 1  COARSEHOM_CAP unset")


def _flags(p):
    flags = []
    if p["beyond"] < MIN_BEYOND:
        flags.append(f"FEWER THAN {MIN_BEYOND} BEYOND")
    if p["jump"] > JUMP_LIMIT:
        flags.append(f"COST JUMP x{p['jump']:.2f} AT NEIGHBOURING RANKS")
    return ("  " + "; ".join(flags)) if flags else ""


def print_run(run, seconds):
    res = run["res"]
    attempted = res["attempted"]
    print(f"workload {run['workload']}  seed {run['seed']}  seconds "
          f"{seconds}  trace {run['trace']}  (closed loop, 1 client)")
    print(_env_line(res))
    m = run["metrics"]
    if not run["trace"]:
        print(f"reports_per_s  {m['reports_per_s'][0]:.4f} 1/s  "
              f"({attempted - run['failed']} correct reports in "
              f"{res['wall_s']:.2f} s, process CPU "
              f"{res['cpu_s'] / res['wall_s']:.3f} of wall)")
        for key in ("p50", "p90"):
            p = run[key]
            print(f"report_s.{key}   {p['value']:.4f} s  (n={p['n']}, "
                  f"{p['beyond']} beyond, neighbour ratio "
                  f"{p['jump']:.2f}){_flags(p)}")
        print(f"setup_s        {m['setup_s'][0]:.4f} s  (median of the "
              f"fastest in each {SETUP_GROUP} of {len(run['setups'])} "
              f"set-ups: {', '.join(f'{s:.3f}' for s in run['setups'])})")
        print(f"peak_rss_mb    {m['peak_rss_mb'][0]:.1f} MB")
    else:
        print("layer spans, per traced report, by self time:")
        names = sorted({k.rsplit(".", 1)[0] for k in m
                        if k.endswith(".self_s")},
                       key=lambda n: -m[n + ".self_s"][0])
        for name in names:
            extra = "  ".join(f"{k.rsplit('.', 1)[1]}={v:.4g}"
                              for k, (v, _) in m.items()
                              if k.rsplit(".", 1)[0] == name
                              and not k.endswith((".self_s", ".calls")))
            print(f"  {name:38s} self {m[name + '.self_s'][0]:.5f} s  "
                  f"calls {m[name + '.calls'][0]:.4g}  {extra}")
        print(f"tracing overhead {m['trace.overhead'][0]:+.3f} (traced "
              f"{m['trace.reports_per_s_traced'][0]:.4f} vs untraced "
              f"{m['trace.reports_per_s_untraced'][0]:.4f} reports/s, "
              f"{attempted // 2} config pairs); {res['spans_written']} "
              f"spans written to {res['spans_path']}")
    kinds = ", ".join(f"{k}: {v}" for k, v in sorted(res["failures"].items()))
    print(f"failed_frac    {run['failed'] / attempted:.4f} 1  "
          f"({run['failed']} failed of {attempted} attempted"
          f"{'; ' + kinds if kinds else ''})")
    for p in res["probes"]:
        other = f"; other outcomes {p['other']}" if p["other"] else ""
        print(f"known defect {p['defect']}: reproduced {p['reproduced']} "
              f"of {p['attempted']} probe configs{other}")
    print(f"correct        {str(run['correct']).lower()}")


def _result_line(run):
    return json.dumps({
        "correct": run["correct"], "attempted": run["res"]["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in run["metrics"].items()}})


def _bounds():
    """Metric name -> (better, bound) from BENCHMARK.json, if present."""
    path = os.path.join(HERE, os.pardir, "BENCHMARK.json")
    if not os.path.isfile(path):
        return {}
    with open(path) as fh:
        spec = json.load(fh)
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def summarise(runs, label):
    """Print and return median, quartiles and spread of every metric."""
    count = len(runs)
    print(f"{label}: {'metric':16s} {'median':>10s} {'q1':>10s} "
          f"{'q3':>10s} {'iqr/median':>10s}  runs={count}, seeds "
          f"{', '.join(str(r['seed']) for r in runs)}")
    summary = {}
    for name, (_, unit) in runs[0]["metrics"].items():
        vals = [r["metrics"][name][0] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = (statistics.quantiles(vals, n=4) if count > 1
                     else (vals[0], None, vals[0]))
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": spread, "unit": unit}
        line = (f"{label}: {name:16s} {med:10.4f} {q1:10.4f} {q3:10.4f} "
                f"{spread:10.4f}  {unit}")
        key = name.rsplit(".", 1)[-1]
        if key in ("p50", "p90"):
            ps = [r[key] for r in runs]
            worst = {"beyond": min(p["beyond"] for p in ps),
                     "jump": max(p["jump"] for p in ps)}
            line += (f"  samples {min(p['n'] for p in ps)}-"
                     f"{max(p['n'] for p in ps)}, beyond >= "
                     f"{worst['beyond']}, neighbour ratio <= "
                     f"{worst['jump']:.2f}{_flags(worst)}")
        print(line)
    print(f"{label}: failed per run: {[r['failed'] for r in runs]}; "
          f"correct in every run: {all(r['correct'] for r in runs)}")
    return summary


def compare(first, second, bounds):
    """Check two sets of runs against the bounds of BENCHMARK.json: every
    spread but setup_s's within its bound, and no median of the second
    set worse than the first's by more than the bound."""
    ok = True
    print(f"{'metric':16s} {'bound':>6s} {'spread 1':>9s} {'spread 2':>9s} "
          f"{'2 vs 1':>8s}  verdict")
    for name, (better, bound) in bounds.items():
        a, b = first[name], second[name]
        change = b["median"] / a["median"] - 1.0
        worse = change if better == "lower" else -change
        bad = []
        if name != "setup_s":
            bad += [f"spread {i} above bound" for i, s in ((1, a), (2, b))
                    if s["spread"] > bound]
        if worse > bound:
            bad.append("set 2 worse by more than the bound")
        ok = ok and not bad
        print(f"{name:16s} {bound:6.3f} {a['spread']:9.4f} "
              f"{b['spread']:9.4f} {change:+8.4f}  "
              f"{'; '.join(bad) if bad else 'ok'}")
    print(f"sets agree within the bounds: {'yes' if ok else 'NO'}")
    return ok


def repeat(workload, seed, seconds, count, sets):
    """Run `sets` sets of `count` untraced runs, interleaved in time: run
    j of every set is made before run j + 1 of any, so host drift falls on
    all sets alike.  Set s uses seeds seed + s*count .. + count - 1."""
    runs = [[] for _ in range(sets)]
    for j in range(count):
        for s in range(sets):
            run = run_once(workload, seed + s * count + j, seconds, 0)
            runs[s].append(run)
            print(f"set {s + 1} run {j + 1}/{count} seed {run['seed']}: "
                  + "  ".join(f"{k}={v:.4f}"
                              for k, (v, _) in run["metrics"].items())
                  + f"  failed={run['failed']}", flush=True)
    print(_env_line(runs[-1][-1]["res"]))
    summaries = [summarise(r, f"set {s + 1}") for s, r in enumerate(runs)]
    result = {"workload": workload, "runs": count, "sets": summaries}
    bounds = _bounds()
    if sets == 2 and bounds:
        result["agree"] = compare(summaries[0], summaries[1], bounds)
    print(json.dumps(result))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=38)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0,
                    help="run the untraced benchmark this many times")
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1,
                    help="with --repeat: sets of runs, interleaved in "
                    "time; with 2, compare them against the bounds")
    args = ap.parse_args()
    try:
        if args.repeat:
            repeat(args.workload, args.seed, args.seconds, args.repeat,
                   args.sets)
            return 0
        run = run_once(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print_run(run, args.seconds)
    print(_result_line(run))
    return 0


if __name__ == "__main__":
    sys.exit(main())
