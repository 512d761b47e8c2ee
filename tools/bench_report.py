#!/usr/bin/env python3
"""Render a BENCH_engine.json ledger (optionally joined against a baseline)
as a human-readable report with wall-time AND memory-telemetry columns.

perf_smoke.py is the pass/fail gate; this is the companion report the
nightly jobs attach as an artifact — one table per workload with ms,
throughput, the mem_*_peak_bytes columns the obs memory telemetry records,
and (when --baseline is given) the fresh/baseline ratios for both time and
peak memory.

Usage:
  tools/bench_report.py --ledger BENCH_engine.json \
      [--baseline committed.json] [--format text|markdown]

Exit status: 0 on success, 2 on bad input. This tool never gates — pair it
with perf_smoke.py when a red/green signal is needed.
"""

import argparse
import json
import sys

MEM_COLUMNS = [
    ("mem_edge_soa_peak_bytes", "edge_soa"),
    ("mem_relation_store_peak_bytes", "store"),
    ("mem_total_peak_bytes", "total"),
    ("mem_process_rss_bytes", "rss"),
]


def load_runs(path):
    try:
        with open(path) as f:
            ledger = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"bench_report: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)
    runs = ledger.get("runs")
    if not isinstance(runs, list):
        print(f"bench_report: {path} has no 'runs' array", file=sys.stderr)
        sys.exit(2)
    return runs


def row_key(run):
    return (run.get("workload"), run.get("regions"), run.get("mode"),
            run.get("threads"))


def human_bytes(value):
    if not value:
        return "-"
    value = float(value)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024.0 or unit == "GiB":
            return f"{value:.0f}{unit}" if unit == "B" else f"{value:.1f}{unit}"
        value /= 1024.0
    return f"{value:.1f}GiB"


def ratio_cell(fresh, base):
    if not base or not fresh:
        return "-"
    return f"{fresh / base:.2f}x"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ledger", required=True,
                        help="BENCH_engine.json from this run")
    parser.add_argument("--baseline", default=None,
                        help="committed ledger to join ratios against")
    parser.add_argument("--format", choices=("text", "markdown"),
                        default="text")
    args = parser.parse_args()

    runs = load_runs(args.ledger)
    baseline = {}
    if args.baseline:
        baseline = {row_key(run): run for run in load_runs(args.baseline)}

    headers = ["workload", "n", "mode", "thr", "ms", "Mpairs/s"]
    headers += [label for _, label in MEM_COLUMNS]
    if baseline:
        headers += ["ms ratio", "mem ratio"]

    rows = []
    for run in runs:
        ms = run.get("ms", 0.0)
        pairs = run.get("pairs", 0)
        mpairs = pairs / ms / 1000.0 if ms else 0.0
        row = [
            str(run.get("workload")),
            str(run.get("regions")),
            str(run.get("mode")),
            str(run.get("threads")),
            f"{ms:.1f}",
            f"{mpairs:.2f}",
        ]
        row += [human_bytes(run.get(column, 0)) for column, _ in MEM_COLUMNS]
        if baseline:
            base = baseline.get(row_key(run))
            if base is None:
                row += ["-", "-"]
            else:
                row += [
                    ratio_cell(ms, base.get("ms")),
                    ratio_cell(run.get("mem_total_peak_bytes"),
                               base.get("mem_total_peak_bytes")),
                ]
        rows.append(row)

    widths = [max(len(headers[i]), max((len(r[i]) for r in rows), default=0))
              for i in range(len(headers))]
    if args.format == "markdown":
        print("| " + " | ".join(h.ljust(w) for h, w in zip(headers, widths)) +
              " |")
        print("|" + "|".join("-" * (w + 2) for w in widths) + "|")
        for row in rows:
            print("| " + " | ".join(c.ljust(w) for c, w in zip(row, widths)) +
                  " |")
    else:
        print("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
        for row in rows:
            print("  ".join(c.ljust(w) for c, w in zip(row, widths)))

    telemetry_rows = sum(1 for run in runs if run.get("mem_total_peak_bytes"))
    if telemetry_rows == 0:
        print("\nbench_report: no memory-telemetry columns found "
              "(ledger predates obs memstats or CARDIR_OBS=OFF)",
              file=sys.stderr)

    by_key = {row_key(run): run for run in runs}

    # Delta-maintenance latency: median/p99 per mutation kind, and the
    # headline ratio — one median mutation vs recomputing the same
    # configuration with the sweep join. The `ms` of an engine_delta* row
    # is a single-mutation median, so the generic table above understates
    # what these rows mean; this section spells it out.
    delta_rows = [run for run in runs
                  if str(run.get("mode", "")).startswith("engine_delta")]
    if delta_rows:
        print("\ndelta maintenance latency (per single mutation):")
        print(f"{'workload':10s} {'n':>7s} {'kind':>8s} {'median ms':>10s} "
              f"{'p99 ms':>9s} {'vs sweep':>9s} {'pairs/mutation':>15s}")
        for run in delta_rows:
            mode = str(run.get("mode"))
            kind = mode[len("engine_delta"):].lstrip("_") or "move"
            sweep = by_key.get((run.get("workload"), run.get("regions"),
                                "engine_sweep", 1))
            ms = run.get("ms", 0.0)
            sweep_ratio = (f"{sweep.get('ms', 0.0) / ms:8.0f}x"
                           if sweep and ms else f"{'-':>9s}")
            touched = (run.get("delta_pairs_reresolved", 0) or 0) + \
                      (run.get("delta_pairs_implicit", 0) or 0)
            # Every row times the same fixed mutation count, so the window
            # totals divide evenly; guard anyway for hand-edited ledgers.
            per_mutation = touched / 200.0
            p99 = run.get("p99_ms")
            p99_cell = f"{p99:9.4f}" if p99 else f"{'-':>9s}"
            print(f"{run.get('workload'):10s} {run.get('regions'):7d} "
                  f"{kind:>8s} {ms:10.4f} {p99_cell} {sweep_ratio} "
                  f"{per_mutation:15.1f}")


if __name__ == "__main__":
    main()
