#!/usr/bin/env python3
"""Perf-smoke gate: fresh bench ledger vs the committed baseline.

Joins the two BENCH_engine.json ledgers on (workload, regions, mode,
threads) and fails when any matched row's fresh wall time exceeds the
baseline by more than the threshold ratio (default 1.30, i.e. a >30%
regression). Rows present in only one ledger (different size lists, the
host-dependent thread count of engine_sweep_parallel) are reported and
skipped, as are rows under --min-ms, whose wall times are scheduler noise.

Memory gate: rows carrying the mem_total_peak_bytes column (obs memory
telemetry) are additionally checked against --mem-threshold (default 1.50).
Rows whose baseline lacks the column (older ledgers, CARDIR_OBS=OFF runs)
or sits under --min-mem-bytes are skipped — peaks of a few KiB are
allocator noise, not a leak signal.

Usage:
  tools/perf_smoke.py --baseline BENCH_engine.json --fresh fresh.json \
      [--threshold 1.30] [--min-ms 5.0] [--mem-threshold 1.50] [--median]

--median gates the median ratio across all matched rows instead of each
row individually — the right shape for tight bounds (e.g. the 2% profiler
overhead gate) where single-row scheduler noise exceeds the threshold.

--require / --require-mode count only *gated* rows: rows in both ledgers
whose baseline wall time is at or above --min-ms. A required workload or
mode whose rows all sit under the noise floor is not timed, so it fails
the requirement.

Exit status: 0 when every matched row is within the thresholds, 1 on any
regression (time or memory), 2 on bad input.
"""

import argparse
import json
import statistics
import sys


def load_runs(path):
    try:
        with open(path) as f:
            ledger = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"perf_smoke: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)
    runs = ledger.get("runs")
    if not isinstance(runs, list):
        print(f"perf_smoke: {path} has no 'runs' array", file=sys.stderr)
        sys.exit(2)
    by_key = {}
    for run in runs:
        key = (run.get("workload"), run.get("regions"), run.get("mode"),
               run.get("threads"))
        if None in key:
            print(f"perf_smoke: {path} row missing key fields: {run}",
                  file=sys.stderr)
            sys.exit(2)
        by_key[key] = run
    return by_key


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="committed BENCH_engine.json")
    parser.add_argument("--fresh", required=True,
                        help="ledger from this run")
    parser.add_argument("--threshold", type=float, default=1.30,
                        help="max fresh/baseline wall-time ratio "
                             "(default 1.30)")
    parser.add_argument("--min-ms", type=float, default=5.0,
                        help="skip rows whose baseline wall time is below "
                             "this (noise floor, default 5.0)")
    parser.add_argument("--mem-threshold", type=float, default=1.50,
                        help="max fresh/baseline mem_total_peak_bytes ratio "
                             "(default 1.50)")
    parser.add_argument("--min-mem-bytes", type=int, default=65536,
                        help="skip the memory check when the baseline peak "
                             "is below this (default 65536)")
    parser.add_argument("--median", action="store_true",
                        help="gate the median wall-time ratio across all "
                             "matched rows instead of each row individually "
                             "(for tight bounds like the 2%% profiler-"
                             "overhead gate, where per-row machine noise "
                             "exceeds the threshold)")
    parser.add_argument("--require", action="append", default=[],
                        metavar="WORKLOAD",
                        help="fail unless at least one gated row (matched "
                             "and not under --min-ms) belongs to this "
                             "workload (repeatable); guards against a fresh "
                             "run that silently skipped the workload the "
                             "gate is meant to cover")
    parser.add_argument("--require-mode", action="append", default=[],
                        metavar="MODE",
                        help="fail unless at least one gated row (matched "
                             "and not under --min-ms) runs in this mode "
                             "(repeatable); guards against a fresh run or a "
                             "baseline refresh that silently dropped a gated "
                             "mode (e.g. engine_sweep), or sped its rows "
                             "under the noise floor")
    args = parser.parse_args()

    baseline = load_runs(args.baseline)
    fresh = load_runs(args.fresh)

    matched = sorted(set(baseline) & set(fresh))
    if not matched:
        print("perf_smoke: no (workload, regions, mode, threads) rows in "
              "common — nothing to gate", file=sys.stderr)
        sys.exit(2)
    for key in sorted(set(fresh) - set(baseline)):
        print(f"  [skip] {key}: not in baseline")

    # Requirements count the rows whose wall time is actually gated.
    gated = [key for key in matched if baseline[key]["ms"] >= args.min_ms]
    gated_workloads = {key[0] for key in gated}
    missing = [w for w in args.require if w not in gated_workloads]
    if missing:
        print(f"perf_smoke: required workload(s) without a gated row "
              f"(absent from the matched rows, or every row under "
              f"--min-ms {args.min_ms}): {', '.join(missing)}",
              file=sys.stderr)
        sys.exit(2)
    gated_modes = {key[2] for key in gated}
    missing_modes = [m for m in args.require_mode if m not in gated_modes]
    if missing_modes:
        print(f"perf_smoke: required mode(s) without a gated row (absent "
              f"from the matched rows, or every row under --min-ms "
              f"{args.min_ms}): {', '.join(missing_modes)}", file=sys.stderr)
        sys.exit(2)

    regressions = []
    mem_regressions = []
    gated_ratios = []
    print(f"{'workload':10s} {'n':>6s} {'mode':20s} {'thr':>3s} "
          f"{'base ms':>9s} {'fresh ms':>9s} {'ratio':>6s} {'mem':>6s}")
    for key in matched:
        base_ms = baseline[key]["ms"]
        fresh_ms = fresh[key]["ms"]
        workload, regions, mode, threads = key

        # Memory check is independent of the wall-time noise floor: a peak
        # regression on a fast row is still a real allocation change.
        base_mem = baseline[key].get("mem_total_peak_bytes", 0) or 0
        fresh_mem = fresh[key].get("mem_total_peak_bytes", 0) or 0
        mem_note = ""
        if base_mem >= args.min_mem_bytes and fresh_mem > 0:
            mem_ratio = fresh_mem / base_mem
            mem_note = f"{mem_ratio:6.2f}"
            if mem_ratio > args.mem_threshold:
                mem_note += "  << MEM REGRESSION"
                mem_regressions.append((key, mem_ratio))
        else:
            mem_note = "     -"

        if base_ms < args.min_ms:
            print(f"{workload:10s} {regions:6d} {mode:20s} {threads:3d} "
                  f"{base_ms:9.2f} {fresh_ms:9.2f}   skip {mem_note}")
            continue
        ratio = fresh_ms / base_ms if base_ms > 0 else float("inf")
        gated_ratios.append(ratio)
        over = ratio > args.threshold and not args.median
        flag = "  << REGRESSION" if over else ""
        print(f"{workload:10s} {regions:6d} {mode:20s} {threads:3d} "
              f"{base_ms:9.2f} {fresh_ms:9.2f} {ratio:6.2f} {mem_note}{flag}")
        if over:
            regressions.append((key, ratio))

    if args.median and gated_ratios:
        median = statistics.median(gated_ratios)
        print(f"\nperf_smoke: median wall-time ratio over "
              f"{len(gated_ratios)} row(s): {median:.3f} "
              f"(threshold {args.threshold:.2f})")
        if median > args.threshold:
            regressions.append((("median", "-", "-", "-"), median))

    if regressions:
        print(f"\nperf_smoke: {len(regressions)} row(s) regressed beyond "
              f"{args.threshold:.2f}x:", file=sys.stderr)
        for key, ratio in regressions:
            print(f"  {key}: {ratio:.2f}x", file=sys.stderr)
    if mem_regressions:
        print(f"\nperf_smoke: {len(mem_regressions)} row(s) grew peak memory "
              f"beyond {args.mem_threshold:.2f}x:", file=sys.stderr)
        for key, ratio in mem_regressions:
            print(f"  {key}: {ratio:.2f}x", file=sys.stderr)
    if regressions or mem_regressions:
        sys.exit(1)
    print(f"\nperf_smoke: all {len(matched)} matched rows within "
          f"{args.threshold:.2f}x (memory within {args.mem_threshold:.2f}x)")


if __name__ == "__main__":
    main()
