#!/usr/bin/env python3
"""Build and run the end-to-end benchmark of the simulator.

  python3 bench/e2e/run.py                    # all five workloads, report
  python3 bench/e2e/run.py --trace            # ... plus span traces and
                                              #     per-layer metrics
  python3 bench/e2e/run.py --smoke            # reduced sizes, one rep
  python3 bench/e2e/run.py --golden           # report diffs vs golden/
  python3 bench/e2e/run.py --out set.json     # result set for compare.py
  python3 bench/e2e/run.py --workload W --seed S --seconds T --trace 0|1

With --workload, the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.

The benchmark binary, wam_e2e, is built from bench/e2e/CMakeLists.txt into
bench/e2e/build; outputs (traces, raw results) go to bench/e2e/out.
Exits non-zero if the build fails or any correctness check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = HERE / "build"
OUT = HERE / "out"
BINARY = BUILD / "wam_e2e"
GOLDEN = HERE / "golden" / "seed1.json"
WORKLOADS = ["membership_churn", "vip_rebalance", "load_75k",
             "load_75k_sharded4", "chaos_state_faults"]
# Virtual metrics a workload reports beyond BENCHMARK.json's end-to-end set
# (each exists only where it is defined; see README.md): unit and the share
# by which compare.py lets it worsen. All are better when lower.
EXTRA_METRICS = {
    "failed_frac": ("ratio", 0.0),
    "blackhole_s": ("s", 0.03),
    "effective_downtime_s": ("s", 0.03),
    "p999_before_ms": ("ms", 0.05),
    "p999_after_ms": ("ms", 0.03),
    "reconverge_p50_ms": ("ms", 0.05),
    "reconverge_p99_ms": ("ms", 0.05),
}
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_spec():
    spec_path = ROOT / "BENCHMARK.json"
    with open(spec_path) as f:
        return json.load(f)


def build():
    """Configure (once) and build wam_e2e; returns True on success."""
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        log("run.py: library sources not found at", ROOT / "src")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            log("run.py: build step failed:", e)
            return False
        if done.returncode != 0:
            log("run.py: build step failed:", " ".join(cmd))
            return False
    return BINARY.exists()


def tag_of(name, seed, smoke):
    return f"{name}_seed{seed}" + ("_smoke" if smoke else "")


def run_workload(name, seed, reps, seconds, trace, smoke):
    """Run wam_e2e for one workload; returns its parsed JSON or None."""
    OUT.mkdir(exist_ok=True)
    tag = tag_of(name, seed, smoke)
    result_path = OUT / f"{tag}.json"
    cmd = [str(BINARY), "--workload", name, "--seed", str(seed),
           "--reps", str(reps), "--seconds", str(seconds),
           "--json", str(result_path)]
    if trace:
        cmd += ["--trace", str(OUT / f"trace_{tag}.json")]
    if smoke:
        cmd.append("--smoke")
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"run.py: {name}: {e}")
        return None
    if done.returncode != 0 or not result_path.exists():
        log(f"run.py: {name}: wam_e2e exited with {done.returncode}")
        return None
    with open(result_path) as f:
        return json.load(f)


def median(values):
    return statistics.median(values)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def samples(result, metric):
    """Every sample the run has of a metric."""
    if metric == "wall_s":
        return result["wall_s"]
    if metric == "setup_s":
        return result["setup_s"]
    if metric == "peak_rss_mb":
        return [result["peak_rss_mb"]]
    if metric in result["virtual"]:
        return [result["virtual"][metric]]
    return []


def value(result, metric):
    """The run's reported value of a metric. wall_s is the fastest of the
    first `reps` measured reps: every rep does identical, verified work and
    host noise only adds. The count is fixed so that a faster commit, which
    fits more reps into --seconds, gets no more chances at a low minimum."""
    values = samples(result, metric)
    if metric == "wall_s":
        return min(values[:result["reps"]])
    return median(values)


SCHEMA = {"workload": str, "seed": int, "correct": bool, "attempted": int,
          "failed": int, "reps": int, "failures": list, "wall_s": list, "setup_s": list,
          "peak_rss_mb": (int, float), "virtual": dict, "counts": dict}


def schema_errors(result, spec, trace):
    """Shape checks on wam_e2e's output against BENCHMARK.json."""
    errors = []
    for key, kind in SCHEMA.items():
        if not isinstance(result.get(key), kind):
            errors.append(f"key {key!r} missing or not {kind}")
    if errors:
        return errors
    if result["attempted"] < 1:
        errors.append("attempted < 1")
    for m in spec["end_to_end"]:
        if not samples(result, m["name"]):
            errors.append(f"end-to-end metric {m['name']} missing")
    if trace:
        layers = result.get("per_layer", {})
        for m in spec["per_layer"]:
            got = layers.get(m["name"])
            if got is None or got.get("unit") != m["unit"]:
                errors.append(f"per-layer metric {m['name']} missing or "
                              f"not in {m['unit']}")
    return errors


def contract_line(result, spec, trace):
    """The benchmark result object: end-to-end or per-layer metrics."""
    metrics = {}
    if trace:
        layers = result.get("per_layer", {})
        for m in spec["per_layer"]:
            if m["name"] in layers:
                metrics[m["name"]] = {"value": layers[m["name"]]["value"],
                                      "unit": m["unit"]}
    else:
        for m in spec["end_to_end"]:
            if samples(result, m["name"]):
                metrics[m["name"]] = {"value": value(result, m["name"]),
                                      "unit": m["unit"]}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def print_report(result, spec, out):
    name = result["workload"]
    status = "ok" if result["correct"] else "FAILED"
    print(f"\n{name} (seed {result['seed']}): checks {status}, "
          f"{result['attempted']} operations, {result['failed']} failed",
          file=out)
    for f in result["failures"]:
        print(f"  check failed: {f}", file=out)
    print(f"  {'metric':<22} {'unit':<6} {'value':>12} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'n':>3}", file=out)
    rows = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    rows += [(k, unit) for k, (unit, _) in EXTRA_METRICS.items()
             if k in result["virtual"]]
    for metric, unit in rows:
        values = samples(result, metric)
        q1, q3 = quartiles(values)
        print(f"  {metric:<22} {unit:<6} {value(result, metric):>12.6g} "
              f"{median(values):>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{len(values):>3}", file=out)
    if "per_layer" in result:
        print(f"  per-layer (traced rep; est.* are estimates: probe cost x "
              f"call count / wall):", file=out)
        for metric, got in result["per_layer"].items():
            print(f"    {metric:<30} {got['value']:>16.6g} {got['unit']}",
                  file=out)


def span_counts(trace_path):
    """Exact counts per span name (repeated names summed) of a trace."""
    with open(trace_path) as f:
        trace = json.load(f)
    out = {}
    for span in trace["spans"]:
        acc = out.setdefault(span["name"], {})
        for key, value in span["counts"].items():
            acc[key] = acc.get(key, 0) + value
    return out


def count_diffs(old, new):
    """Every difference in virtual metrics and exact per-span counts
    between two entries of the form {"virtual": {...}, "spans": {...}}."""
    diffs = []
    for key in sorted(set(old["virtual"]) | set(new["virtual"])):
        a, b = old["virtual"].get(key), new["virtual"].get(key)
        if a != b:
            diffs.append(f"virtual {key}: {a} -> {b}")
    for span in sorted(set(old["spans"]) | set(new["spans"])):
        a, b = old["spans"].get(span, {}), new["spans"].get(span, {})
        for key in sorted(set(a) | set(b)):
            if a.get(key) != b.get(key):
                diffs.append(f"span {span}: {key} {a.get(key)} -> "
                             f"{b.get(key)}")
    return diffs


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS,
                   help="run one workload and print its result object")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=0,
                   help="measure reps until this much host time is spent")
    p.add_argument("--trace", nargs="?", const="1", default="0",
                   choices=["0", "1"], help="add a traced rep (1) or not")
    p.add_argument("--smoke", action="store_true",
                   help="reduced sizes, one rep, schema + checks only")
    p.add_argument("--golden", action="store_true",
                   help="report differences against golden/seed1.json")
    p.add_argument("--pin-golden", action="store_true",
                   help="rewrite golden/seed1.json from this run")
    p.add_argument("--out", help="write the result set here (compare.py)")
    args = p.parse_args()

    trace = args.trace == "1" or args.golden or args.pin_golden
    if (args.golden or args.pin_golden) and (args.seed != 1 or args.smoke):
        p.error("golden counts are for seed 1 at full size")
    if args.pin_golden and args.workload:
        p.error("--pin-golden re-pins all workloads; drop --workload")
    reps = 1 if args.smoke else 5

    if not build():
        return 2
    spec = load_spec()
    names = [args.workload] if args.workload else WORKLOADS
    report = sys.stderr if args.workload else sys.stdout
    results = {}
    ok = True
    for name in names:
        result = run_workload(name, args.seed, reps, args.seconds, trace,
                              args.smoke)
        if result is None:
            return 1
        errors = schema_errors(result, spec, trace)
        for e in errors:
            log(f"run.py: {name}: schema: {e}")
        if errors:
            result["correct"] = False
        ok = ok and result["correct"]
        results[name] = result
        print_report(result, spec, report)

    def traced_spans(name):
        tag = tag_of(name, args.seed, args.smoke)
        return span_counts(OUT / f"trace_{tag}.json")

    if args.golden or args.pin_golden:
        current = {n: {"virtual": results[n]["virtual"],
                       "spans": traced_spans(n)} for n in names}
        if args.pin_golden:
            GOLDEN.parent.mkdir(exist_ok=True)
            with open(GOLDEN, "w") as f:
                json.dump({"seed": 1, "workloads": current}, f, indent=1,
                          sort_keys=True)
                f.write("\n")
            print(f"\npinned {GOLDEN.relative_to(ROOT)}", file=report)
        else:
            with open(GOLDEN) as f:
                golden = json.load(f)["workloads"]
            print("\ngolden counts (report only; never fails the run):",
                  file=report)
            for n in names:
                diffs = count_diffs(golden[n], current[n]) if n in golden \
                    else ["not in golden"]
                print(f"  {n}: {'identical' if not diffs else ''}",
                      file=report)
                for d in diffs:
                    print(f"    {d}", file=report)

    if args.out:
        result_set = {"seed": args.seed, "smoke": args.smoke, "workloads": {}}
        for n, r in results.items():
            entry = {"metrics": {}, "virtual": r["virtual"],
                     "counts": r["counts"], "correct": r["correct"]}
            for m in spec["end_to_end"]:
                entry["metrics"][m["name"]] = {
                    "value": value(r, m["name"]),
                    "samples": samples(r, m["name"])}
            if trace:
                entry["spans"] = traced_spans(n)
                entry["per_layer"] = {k: v["value"]
                                      for k, v in r["per_layer"].items()}
            result_set["workloads"][n] = entry
        with open(args.out, "w") as f:
            json.dump(result_set, f, indent=1, sort_keys=True)
            f.write("\n")

    if args.workload:
        line = contract_line(results[args.workload], spec, trace)
        line["correct"] = ok
        print(json.dumps(line))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
