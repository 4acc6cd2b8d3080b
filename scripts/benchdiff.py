#!/usr/bin/env python3
"""Compare two benchsuite -json reports metric by metric.

Usage: benchdiff.py BASELINE.json CURRENT.json
       benchdiff.py --lockstep [BENCH_OUTPUT.txt]

The suite is deterministic at a fixed seed, so any drift in a metric
summary (count/mean/std/min/max/median/p90 per (series, x, metric) point)
means the simulation's behavior changed. Wall-clock fields (durationMs)
are ignored. Exits 0 when every shared metric point matches, 1 on any
difference, missing experiment, or missing point. CI's bench-drift job
fails on a non-zero exit, so a change that alters results on purpose
regenerates the baseline in the same change.

Reports may also carry a per-experiment "perf" section (trial wall-time
histogram summaries). Perf numbers are hardware- and load-dependent, so
they are compared informationally only: mean-trial-time drift beyond
±20% prints a PERF warning but never changes the exit code.

With --lockstep the input is `go test -bench BenchmarkRun -benchmem`
output covering both BenchmarkRun and BenchmarkRunLockstep (a file
argument or stdin), and the check is the lockstep engine's throughput
contract: on every shared workload, lockstep-pooled trials/s must be at
least LOCKSTEP_FLOOR times the reference engine's from the same run — a
hard failure. The reference engine is the parity oracle and is never
tuned, so the ratio measures the lockstep engine alone; a ratio over the
pooled scalar engine would shrink with every scalar speed-up. That
ratio is still printed. The maximum across -count repeats is compared
on every side: throughput noise only ever subtracts, so the max is the
least-noisy estimate of each engine.
"""

import json
import sys


def metric_points(report):
    """Flatten a report into {(experiment, series, x, metric): summary}."""
    points = {}
    for exp in report.get("experiments", []):
        for pt in exp.get("metrics", []):
            key = (exp["id"], pt["series"], pt["x"], pt["metric"])
            points[key] = pt["summary"]
    return points


PERF_DRIFT = 0.20  # warn when mean trial time moves more than ±20%


def perf_sections(report):
    """Flatten a report into {experiment: perf section} (absent ones skipped)."""
    return {
        exp["id"]: exp["perf"]
        for exp in report.get("experiments", [])
        if exp.get("perf")
    }


def warn_perf_drift(baseline, current):
    """Print warn-only PERF lines for wall-time drift; never affects exit."""
    base, cur = perf_sections(baseline), perf_sections(current)
    for exp_id in sorted(set(base) & set(cur)):
        b, c = base[exp_id]["trialMs"]["mean"], cur[exp_id]["trialMs"]["mean"]
        if b <= 0:
            continue
        drift = (c - b) / b
        if abs(drift) > PERF_DRIFT:
            print(
                f"PERF     {exp_id}: mean trial time {b:.2f}ms -> {c:.2f}ms "
                f"({drift:+.0%}; informational, threshold ±{PERF_DRIFT:.0%})"
            )


import re

# Hard minimum lockstep-pooled / reference trials/s ratio. The gate it
# replaced asked for 5x the pooled scalar engine, which ran at 5.4x-6.8x
# the reference engine on a 2-vCPU VM (Go 1.24, n=1024 and 4096, -count
# 3 maxima), so that floor sat at 27x-34x the reference; 35x keeps every
# slowdown it caught failing. Lockstep itself ran at 42x-52x.
LOCKSTEP_FLOOR = 35.0

BENCH_LINE = re.compile(
    r"^(?P<bench>BenchmarkRun|BenchmarkRunLockstep)"
    r"/(?P<engine>[\w-]+)/(?P<work>[\w=/.]+?)(?:-\d+)?\s+\d+\s+(?P<metrics>.*)$"
)
TRIALS_PER_SEC = re.compile(r"([\d.e+]+) trials/s")


def lockstep_main(src):
    """--lockstep mode: enforce the lockstep engine's throughput floor."""
    best = {}  # (bench, engine, workload) -> max trials/s across repeats
    for line in src:
        m = BENCH_LINE.match(line.strip())
        if not m:
            continue
        t = TRIALS_PER_SEC.search(m.group("metrics"))
        if not t:
            continue
        key = (m.group("bench"), m.group("engine"), m.group("work"))
        best[key] = max(best.get(key, 0.0), float(t.group(1)))

    def engine(bench, name):
        return {w: v for (b, e, w), v in best.items() if b == bench and e == name}

    reference = engine("BenchmarkRun", "reference")
    pooled = engine("BenchmarkRun", "pooled")
    lockstep = engine("BenchmarkRunLockstep", "lockstep-pooled")
    shared = sorted(set(reference) & set(pooled) & set(lockstep))
    if not shared:
        print(
            "benchdiff --lockstep: no workload has reference, pooled and "
            "lockstep-pooled results (run both BenchmarkRun and "
            "BenchmarkRunLockstep with trials/s metrics)",
            file=sys.stderr,
        )
        return 1

    ok = True
    for work in shared:
        ref, scalar, fast = reference[work], pooled[work], lockstep[work]
        if ref <= 0 or scalar <= 0:
            continue
        ratio = fast / ref
        status = "ok"
        if ratio < LOCKSTEP_FLOOR:
            status, ok = "REGRESSION", False
        print(
            f"{status:10}  {work}: reference={ref:.1f} pooled={scalar:.1f} "
            f"lockstep={fast:.1f} trials/s ({ratio:.1f}x reference, floor "
            f"{LOCKSTEP_FLOOR:.0f}x; {fast / scalar:.1f}x pooled scalar)"
        )
    if not ok:
        print(
            f"benchdiff --lockstep: lockstep throughput fell below the hard "
            f"{LOCKSTEP_FLOOR:.0f}x floor over the reference engine",
            file=sys.stderr,
        )
        return 1
    print(f"benchdiff --lockstep: floor holds across {len(shared)} workloads")
    return 0


def main():
    if "--lockstep" in sys.argv:
        argv = [a for a in sys.argv if a != "--lockstep"]
        sys.exit(lockstep_main(open(argv[1]) if len(argv) > 1 else sys.stdin))
    if len(sys.argv) != 3:
        sys.exit(__doc__.strip())
    with open(sys.argv[1]) as f:
        baseline = json.load(f)
    with open(sys.argv[2]) as f:
        current = json.load(f)

    base = metric_points(baseline)
    cur = metric_points(current)
    drifted = 0

    for key in sorted(base):
        if key not in cur:
            print(f"MISSING  {'/'.join(map(str, key))}: point absent from current run")
            drifted += 1
            continue
        if base[key] != cur[key]:
            print(f"DRIFT    {'/'.join(map(str, key))}:")
            print(f"  baseline: {base[key]}")
            print(f"  current:  {cur[key]}")
            drifted += 1
    for key in sorted(set(cur) - set(base)):
        print(f"NEW      {'/'.join(map(str, key))}: not in baseline (regenerate it?)")

    warn_perf_drift(baseline, current)

    total = len(base)
    if drifted:
        print(f"\n{drifted}/{total} metric points drifted from the baseline.")
        print("If the change is intentional, regenerate with:")
        print("  go run ./cmd/benchsuite -quick -seed 1 -json BENCH_baseline.json")
        sys.exit(1)
    print(f"All {total} baseline metric points match.")


if __name__ == "__main__":
    main()
