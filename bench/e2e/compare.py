#!/usr/bin/env python3
"""Compare result sets of two commits (parent and change).

  python3 bench/e2e/compare.py --base P.json --change C.json
  python3 bench/e2e/compare.py --base p01.json ... p10.json \\
                               --change c01.json ... c10.json \\
                               --claim vip_rebalance:wall_s

Each file is one `run.py --out FILE` result set. With one file per side a
metric's samples are the reps inside it; with several files, the samples
are the per-file reported values (run.py's value(): the fastest rep for
wall_s, the median otherwise), and files pair up in the order given (p01
with c01, ...) — run the two commits alternately, switching which goes
first.

Prints one row per workload and metric with the direction and bound from
BENCHMARK.json (and run.py's EXTRA_METRICS for the workload-specific
virtual metrics). setup_s may also worsen by up to 2 ms whatever its share
(FLOORS); the row shows the bound in effect. A metric whose run-to-run spread (IQR / median of the
base samples) exceeds its bound is "unresolved" unless every change sample
beats every base sample. So is a host-time metric beyond its bound when
each side has only one file: its reps share one host state, so the noise
between runs is unseen. --claim applies the pair-win rule: at least 10
pairs, the change wins at least 9 in 10 (ties count for neither), and the
medians differ by more than the base's IQR. Finally lists every exact
per-layer count that differs, per span, between the first file of each
side. Exits 1 if a metric regressed or the claim is not met.
"""

import argparse
import json
import statistics
import sys

from run import EXTRA_METRICS, count_diffs, load_spec


def load_sets(paths):
    sets = []
    for path in paths:
        with open(path) as f:
            sets.append(json.load(f))
    return sets


def metric_samples(sets, workload, metric):
    """Samples of a metric on one side (see the module docstring)."""
    per_file = []
    for s in sets:
        entry = s["workloads"].get(workload)
        if entry is None:
            continue
        if metric in entry["metrics"]:
            per_file.append(entry["metrics"][metric])
        elif metric in entry["virtual"]:
            value = entry["virtual"][metric]
            per_file.append({"value": value, "samples": [value]})
    if len(per_file) == 1:
        return per_file[0]["samples"]
    return [m["value"] for m in per_file]


def iqr(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def better(a, b, direction):
    """True if value a is strictly better than b."""
    return a < b if direction == "lower" else a > b


# Measured on the host, so they vary from run to run; the other metrics
# are virtual-time results, exact functions of the seed.
HOST_METRICS = {"wall_s", "setup_s", "peak_rss_mb"}
# Absolute slack, in the metric's unit, below which a worsening is never a
# regression: the bound is the larger of the share and this. Set-ups of a
# few ms swing by more than any share bound on a shared host.
FLOORS = {"setup_s": 0.002}


def verdict(base, change, direction, bound, one_run):
    """`one_run`: a host metric's samples come from a single run per side,
    whose reps share one host state, so between-run noise is unseen."""
    mb, mc = statistics.median(base), statistics.median(change)
    worse = (mc - mb) if direction == "lower" else (mb - mc)
    rel = worse / abs(mb) if mb else (0.0 if worse == 0 else float("inf"))
    spread = iqr(base) / abs(mb) if mb else 0.0
    if all(better(c, b, direction) for c in change for b in base):
        return "better (every run)", rel, spread
    if spread > bound:
        return "unresolved", rel, spread
    if rel > bound:
        return ("unresolved (one run per side)" if one_run else "REGRESSION",
                rel, spread)
    return "ok", rel, spread


def entry_counts(result_set, workload):
    """A workload's virtual metrics and per-span counts; result sets written
    without --trace only have the rep totals."""
    entry = result_set["workloads"].get(workload, {})
    spans = entry.get("spans") or {"(rep total)": entry.get("counts", {})}
    return {"virtual": entry.get("virtual", {}), "spans": spans}


def check_claim(base_sets, change_sets, workload, metric, direction):
    pairs = list(zip(metric_samples(base_sets, workload, metric),
                     metric_samples(change_sets, workload, metric)))
    if len(base_sets) < 2 or len(change_sets) < 2:
        pairs = []  # pairs are whole runs, not reps inside one run
    wins = sum(1 for b, c in pairs if better(c, b, direction))
    base = [b for b, _ in pairs]
    change = [c for _, c in pairs]
    print(f"\nclaim {workload}:{metric} ({direction} is better): "
          f"{len(pairs)} pairs, change wins {wins}")
    if len(pairs) < 10:
        print("  not met: fewer than 10 alternating pairs")
        return False
    mb, mc = statistics.median(base), statistics.median(change)
    print(f"  base median {mb:.6g} (IQR {iqr(base):.6g}), "
          f"change median {mc:.6g} (IQR {iqr(change):.6g})")
    if wins * 10 < 9 * len(pairs):
        print("  not met: the change wins fewer than 9 in 10 pairs")
        return False
    if abs(mc - mb) <= iqr(base):
        print("  not met: medians differ by no more than the base IQR")
        return False
    print("  met")
    return True


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", nargs="+", required=True)
    p.add_argument("--change", nargs="+", required=True)
    p.add_argument("--claim", help="WORKLOAD:METRIC to test with the "
                                   "pair-win rule")
    args = p.parse_args()

    spec = load_spec()
    metrics = [(m["name"], m["unit"], m["better"], m["bound"])
               for m in spec["end_to_end"]]
    metrics += [(k, unit, "lower", bound)
                for k, (unit, bound) in EXTRA_METRICS.items()]
    base_sets, change_sets = load_sets(args.base), load_sets(args.change)
    workloads = [w["name"] for w in spec["workloads"]]

    print(f"{'workload':<20} {'metric':<22} {'unit':<6} {'base':>12} "
          f"{'change':>12} {'worse':>8} {'bound':>7} {'spread':>7}  verdict")
    regressed = False
    for w in workloads:
        for name, unit, direction, bound in metrics:
            base = metric_samples(base_sets, w, name)
            change = metric_samples(change_sets, w, name)
            if not base or not change:
                continue
            mb = abs(statistics.median(base))
            if name in FLOORS and mb:
                bound = max(bound, FLOORS[name] / mb)
            one_run = name in HOST_METRICS and min(
                len(base_sets), len(change_sets)) < 2
            v, rel, spread = verdict(base, change, direction, bound, one_run)
            regressed |= v == "REGRESSION"
            print(f"{w:<20} {name:<22} {unit:<6} "
                  f"{statistics.median(base):>12.6g} "
                  f"{statistics.median(change):>12.6g} {rel:>+8.2%} "
                  f"{bound:>7.0%} {spread:>7.2%}  {v}")

    print("\nexact count differences (first file of each side):")
    for w in workloads:
        diffs = count_diffs(entry_counts(base_sets[0], w),
                            entry_counts(change_sets[0], w))
        print(f"  {w}: {'identical' if not diffs else ''}")
        for d in diffs:
            print(f"    {d}")

    claim_ok = True
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        direction = next((d for n, _, d, _ in metrics if n == metric), None)
        if workload not in workloads or direction is None:
            p.error(f"unknown claim {args.claim!r}")
        claim_ok = check_claim(base_sets, change_sets, workload, metric,
                               direction)
    return 1 if regressed or not claim_ok else 0


if __name__ == "__main__":
    sys.exit(main())
