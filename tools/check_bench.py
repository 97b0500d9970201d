#!/usr/bin/env python3
"""Compare two google-benchmark JSON files and fail on regressions.

Usage:
    check_bench.py BASELINE.json CURRENT.json [--threshold 2.0]
        [--override GLOB=RATIO ...]

For every benchmark present in both files, computes
current_time / baseline_time (real_time, same time_unit required) and
exits non-zero if any ratio exceeds its threshold. Benchmarks that only
exist on one side are reported but never fatal, so adding or retiring a
benchmark does not break CI.

Per-benchmark overrides loosen (or tighten) the global threshold for
benchmarks whose name matches an fnmatch glob, e.g.

    check_bench.py base.json curr.json --threshold 2.0 \\
        --override 'BM_Scale*=3.0' --override 'BM_StateEncode/*=1.5'

The first matching override wins. Use them for benchmarks that measure
whole-simulation runs (noisier than micro loops) rather than raising the
global threshold for everyone.

Baselines are machine-dependent: the checked-in baseline is only meant to
catch order-of-magnitude regressions (hence the generous default
threshold), not single-digit-percent noise.

A row that carries an exact work count, `events` (scheduler events a
whole-simulation row executed), on both sides is also gated on it: the
count is a function of the code and the seed, not of the host, so it
fails when current exceeds baseline by more than EVENTS_TOLERANCE (1 %).
That catches an algorithmic regression of a few percent that no
wall-clock threshold can tell from noise. A baseline row with `events`
whose current row has none fails too, so the gate cannot drop out
silently.
"""

import argparse
import fnmatch
import json
import sys

EVENTS_TOLERANCE = 0.01


def load_benchmarks(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    out = {}
    for b in doc.get("benchmarks", []):
        # Skip aggregate rows (mean/median/stddev of repetitions).
        if b.get("run_type") == "aggregate":
            continue
        out[b["name"]] = b
    return out


def parse_override(text):
    glob, sep, ratio = text.rpartition("=")
    if not sep or not glob:
        raise argparse.ArgumentTypeError(
            f"override '{text}' is not of the form GLOB=RATIO")
    try:
        value = float(ratio)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"override '{text}' has a non-numeric ratio") from exc
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"override '{text}' must have a positive ratio")
    return glob, value


def threshold_for(name, default, overrides):
    for glob, ratio in overrides:
        if fnmatch.fnmatchcase(name, glob):
            return ratio
    return default


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--threshold", type=float, default=2.0,
                    help="fail when current/baseline exceeds this (default 2.0)")
    ap.add_argument("--override", type=parse_override, action="append",
                    default=[], metavar="GLOB=RATIO",
                    help="per-benchmark threshold; first matching glob wins")
    args = ap.parse_args()

    base = load_benchmarks(args.baseline)
    curr = load_benchmarks(args.current)

    missing = sorted(set(base) - set(curr))
    added = sorted(set(curr) - set(base))
    for name in missing:
        print(f"NOTE  {name}: in baseline only (skipped)")
    for name in added:
        print(f"NOTE  {name}: new benchmark, no baseline")

    failures = []
    for name in sorted(set(base) & set(curr)):
        b, c = base[name], curr[name]
        be, ce = b.get("events"), c.get("events")
        if be and ce is None:
            print(f"FAIL  {name}: events {be} -> missing")
            failures.append(f"{name}: events missing (baseline {be})")
        elif be:
            elimit = 1.0 + EVENTS_TOLERANCE
            eratio = ce / be
            status = "FAIL" if eratio > elimit else "ok"
            print(f"{status:<5} {name}: events {be} -> {ce} ({eratio:.4f}x)")
            if eratio > elimit:
                failures.append(f"{name}: events {eratio:.4f}x "
                                f"(limit {elimit:.2f}x)")
        if b.get("time_unit") != c.get("time_unit"):
            print(f"SKIP  {name}: time_unit mismatch "
                  f"({b.get('time_unit')} vs {c.get('time_unit')})")
            continue
        bt, ct = b.get("real_time"), c.get("real_time")
        if not bt or bt <= 0 or ct is None:
            print(f"SKIP  {name}: unusable real_time")
            continue
        limit = threshold_for(name, args.threshold, args.override)
        ratio = ct / bt
        status = "FAIL" if ratio > limit else "ok"
        note = "" if limit == args.threshold else f" [limit {limit:.1f}x]"
        print(f"{status:<5} {name}: {bt:.1f} -> {ct:.1f} {b['time_unit']} "
              f"({ratio:.2f}x){note}")
        if ratio > limit:
            failures.append(f"{name}: {ratio:.2f}x (limit {limit:.1f}x)")

    if failures:
        print(f"\n{len(failures)} regression(s) beyond their limit:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print(f"\nall {len(set(base) & set(curr))} shared benchmark(s) within "
          f"their limits")
    return 0


if __name__ == "__main__":
    sys.exit(main())
