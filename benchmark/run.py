#!/usr/bin/env python3
"""Builds and runs the end-to-end CARDIRECT benchmark (see README.md).

One run of one workload; the last line of output is the JSON result:
  python3 benchmark/run.py --workload map_edit --seed 1 --seconds 6 --trace 0

Repeatability report: every workload --runs times per set, each run with
its own seed; per (metric, workload) the median and quartiles of each set,
flagging a spread or a drift between sets beyond the metric's bound:
  python3 benchmark/run.py --runs 10 --sets 2 [--order alternate] [--trace 1]

Smoke check of the harness (tiny sizes, same code paths and oracles):
  python3 benchmark/run.py --smoke

The benchmark program (cardir_e2e) is built from source into
build-benchmark/ at the repository root, which is also where traces and
the repeatability report go.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, "build-benchmark")
BINARY = os.path.join(BUILD, "cardir_e2e")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds cardir_e2e; exits non-zero on failure."""
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "benchmark"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4", "--target",
                  "cardir_e2e"])
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.stderr.write("run.py: build failed (log: %s)\n" % log_path)
                sys.exit(1)


def run_one(workload, seed, seconds, trace, smoke=False):
    """Runs cardir_e2e once; returns (exit code, stdout, stderr, result)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds)]
    if smoke:
        cmd.append("--smoke")
    if trace:
        cmd += ["--trace", "--trace-out",
                os.path.join(BUILD, "trace-%s-%d.json" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as timeout:
        return 1, timeout.stdout or "", "run.py: %s timed out\n" % workload, None
    result = None
    lines = proc.stdout.strip().splitlines()
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, proc.stdout, proc.stderr, result


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        sys.exit("run.py: %s is missing" % path)
    with open(path) as f:
        return json.load(f)


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    if first == 0:
        return 0.0
    change = (second - first) / abs(first)
    return -change if better == "higher" else change


def report(spec, workloads, values, sets, trace):
    """Prints the per (metric, workload) table; returns the flag count."""
    kind = "per_layer" if trace else "end_to_end"
    metrics = {m["name"]: m for m in spec[kind]}
    flags = 0
    print("%-16s %-38s %4s %14s %14s %14s %8s %7s %8s" %
          ("workload", "metric", "set", "median", "q1", "q3", "spread",
           "bound", "drift"))
    for workload in workloads:
        for name, metric in metrics.items():
            bound = metric.get("bound")
            medians = []
            for s in range(sets):
                v = values.get((s, workload, name), [])
                if len(v) < 2:
                    continue
                q1, med, q3 = statistics.quantiles(v, n=4)
                medians.append(med)
                spread = (q3 - q1) / abs(med) if med else 0.0
                drift = (worse_by(medians[0], med, metric["better"])
                         if s > 0 else 0.0)
                flag = ""
                if bound is not None and name != "setup_s" and spread > bound:
                    flag += " SPREAD"
                if bound is not None and s > 0 and drift > bound:
                    flag += " DRIFT"
                if flag:
                    flags += 1
                print("%-16s %-38s %4d %14.6g %14.6g %14.6g %7.2f%% %6s %7.2f%%%s"
                      % (workload, name, s, med, q1, q3, spread * 100,
                         "%g%%" % (bound * 100) if bound is not None else "-",
                         drift * 100, flag))
    return flags


def repeat(args, spec):
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    values = {}
    failures = 0
    for s in range(args.sets):
        for r in range(args.runs):
            order = workloads
            if args.order == "alternate" and r % 2 == 1:
                order = list(reversed(workloads))
            seed = args.seed + s * args.runs + r
            for workload in order:
                start = time.time()
                code, _, err, result = run_one(workload, seed, seconds,
                                               args.trace)
                wall = time.time() - start
                ok = code == 0 and result is not None and result["correct"]
                print("set %d run %d seed %d %-16s %6.1f s %s" %
                      (s, r, seed, workload, wall, "ok" if ok else "FAILED"),
                      flush=True)
                if not ok:
                    failures += 1
                    sys.stderr.write(err)
                    continue
                for name, metric in result["metrics"].items():
                    values.setdefault((s, workload, name), []).append(
                        metric["value"])
    flags = report(spec, workloads, values, args.sets, args.trace)
    print("runs failed: %d, metrics flagged: %d" % (failures, flags))
    with open(os.path.join(BUILD, "report.json"), "w") as f:
        json.dump([{"set": s, "workload": w, "metric": m, "values": v}
                   for (s, w, m), v in sorted(values.items())], f, indent=1)
    return 1 if failures or flags else 0


def smoke(spec):
    start = time.time()
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (False, True):
            code, out, err, result = run_one(workload, 1, 0.25, trace,
                                             smoke=True)
            ok = code == 0 and result is not None and result["correct"]
            print("smoke %-16s trace=%d %s" %
                  (workload, trace, "ok" if ok else "FAILED"))
            if not ok:
                failures += 1
                sys.stderr.write(out + err)
    print("smoke: %d failed, %.1f s" % (failures, time.time() - start))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--order", choices=("fixed", "alternate"),
                        default="fixed")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not (args.workload or args.runs or args.smoke):
        parser.error("one of --workload, --runs or --smoke is required")

    build()
    if args.smoke:
        return smoke(load_spec())
    if args.runs:
        return repeat(args, load_spec())
    seconds = args.seconds or load_spec()["run_seconds"]
    code, out, err, _ = run_one(args.workload, args.seed, seconds,
                                args.trace)
    sys.stdout.write(out)
    sys.stderr.write(err)
    return code


if __name__ == "__main__":
    sys.exit(main())
