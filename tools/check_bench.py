#!/usr/bin/env python3
"""Gate benchmark results against checked-in baselines.

Each bench binary run with ``--json out.json`` emits an array of
records ``{"benchmark", "arch", "metric", "value", "unit"}``.  The
simulation is fully deterministic (costs are charged in simulated
nanoseconds from the cost tables, never measured from the host), so a
drifting value means the *model* changed — exactly what a perf gate
should catch.  Every record (count, ns and ratio alike) must equal its
baseline exactly: a deliberate model change regenerates the baselines
with --update and says why.

Every baseline benchmark must appear in the results: a benchmark
machvm_bench stops emitting fails the gate instead of dropping out of
it.

Usage:
    check_bench.py --baseline-dir bench/baselines results/*.json
    check_bench.py --baseline-dir bench/baselines --update results/*.json

With ``--update`` the result files are rewritten into the baseline
directory (one ``<benchmark>.json`` per benchmark), which is how the
baselines are regenerated after an intentional model change.
"""

import argparse
import json
import os
import sys

def key(rec):
    return (rec["benchmark"], rec["arch"], rec["metric"])

def load_records(path):
    with open(path) as f:
        data = json.load(f)
    if not isinstance(data, list):
        raise ValueError(f"{path}: expected a JSON array of records")
    for rec in data:
        for field in ("benchmark", "arch", "metric", "value", "unit"):
            if field not in rec:
                raise ValueError(f"{path}: record missing '{field}': {rec}")
    return data

def load_dir(dirname):
    records = {}
    for name in sorted(os.listdir(dirname)):
        if not name.endswith(".json"):
            continue
        for rec in load_records(os.path.join(dirname, name)):
            records[key(rec)] = rec
    return records

def set_mismatch_report(baseline, results, bench):
    """Describe the metric-set difference for one benchmark.

    A bare "new metric" / "missing metric" line forces the reader to
    diff two JSON files by hand; list both sets instead so the drift
    is visible in the failure message itself.
    """
    base_keys = {k for k in baseline if k[0] == bench}
    res_keys = {k for k in results if k[0] == bench}
    lines = []
    only_res = sorted(res_keys - base_keys)
    only_base = sorted(base_keys - res_keys)
    if only_res:
        lines.append(f"    only in results ({len(only_res)}):")
        lines += [f"      {'/'.join(k)}" for k in only_res]
    if only_base:
        lines.append(f"    only in baseline ({len(only_base)}):")
        lines += [f"      {'/'.join(k)}" for k in only_base]
    lines.append(
        f"    (baseline has {len(base_keys)} metrics for {bench}, "
        f"results have {len(res_keys)}; run with --update to accept "
        f"an intentional change)")
    return lines

def compare(baseline, results):
    """Return a list of human-readable failure strings."""
    failures = []
    mismatched_benches = set()
    for k, rec in sorted(results.items()):
        base = baseline.get(k)
        if base is None:
            mismatched_benches.add(k[0])
            continue
        got, want, unit = rec["value"], base["value"], rec["unit"]
        if unit != base["unit"]:
            failures.append(
                f"UNIT CHANGE {'/'.join(k)}: {base['unit']} -> {unit}")
            continue
        if got != want:
            failures.append(
                f"DRIFT {'/'.join(k)}: {got} != {want} ({unit})")

    mismatched_benches |= {k[0] for k in baseline if k not in results}
    covered = {k[0] for k in results}
    for bench in sorted(mismatched_benches):
        if bench not in covered:
            n = sum(1 for k in baseline if k[0] == bench)
            failures.append(f"MISSING BENCHMARK {bench}: no records in "
                            f"the results ({n} baseline metrics)")
            continue
        failures.append(f"METRIC SET MISMATCH for {bench}:")
        failures += set_mismatch_report(baseline, results, bench)
    return failures

def update_baselines(result_files, baseline_dir):
    by_bench = {}
    for path in result_files:
        for rec in load_records(path):
            by_bench.setdefault(rec["benchmark"], []).append(rec)
    os.makedirs(baseline_dir, exist_ok=True)
    for bench, recs in sorted(by_bench.items()):
        out = os.path.join(baseline_dir, f"{bench}.json")
        with open(out, "w") as f:
            json.dump(recs, f, indent=2)
            f.write("\n")
        print(f"updated {out} ({len(recs)} metrics)")

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("results", nargs="+",
                    help="JSON files produced by bench --json")
    ap.add_argument("--baseline-dir", default="bench/baselines",
                    help="directory of checked-in baseline JSONs")
    ap.add_argument("--update", action="store_true",
                    help="rewrite baselines from the result files")
    args = ap.parse_args(argv)

    if args.update:
        update_baselines(args.results, args.baseline_dir)
        return 0

    if not os.path.isdir(args.baseline_dir):
        print(f"error: baseline dir '{args.baseline_dir}' not found",
              file=sys.stderr)
        return 2

    baseline = load_dir(args.baseline_dir)
    results = {}
    for path in args.results:
        for rec in load_records(path):
            results[key(rec)] = rec

    failures = compare(baseline, results)
    if failures:
        print(f"check_bench: {len(failures)} failure(s) "
              f"across {len(results)} gated metrics:")
        for f in failures:
            print(f"  {f}")
        return 1
    print(f"check_bench: all {len(results)} gated metrics equal their "
          f"baselines ({len(baseline)} baseline entries)")
    return 0

if __name__ == "__main__":
    sys.exit(main())
