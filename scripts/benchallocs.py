#!/usr/bin/env python3
"""Check the repo's benchmark allocation contracts.

Default mode reads `go test -bench BenchmarkRun -benchmem` output (a file
argument or stdin) and asserts that, for every workload size, the "perf"
engine variant (pooled scheduler with a RunPerf sink attached) reports
allocs/op no worse than the plain "pooled" variant. Worker-side buffer
growth makes allocs/op mildly scheduling-dependent, so when the input
holds several runs per variant (-count=N) the minimum is compared — noise
only ever adds allocations — under a small relative slack.

With --solvebatch the input is `go test -bench BenchmarkSolveBatch
-benchmem` output instead, and the check is the batch scheduler's serving
contract: the warm "planner" variant must report exactly 0 allocs/op on
every workload (minimum across -count repeats). A single steady-state
allocation per call breaks the high-throughput schedule path's promise.

With --lockstep the input is `go test -bench BenchmarkRunLockstep
-benchmem` output, and the check is the lockstep engine's lane-path
contract: the pooled variant's steady-state allocs/op (one op = one
64-lane batch, minimum across -count repeats) must stay within a fixed
per-batch budget. A warm pooled batch hands every lane's Result to a
callback in the pool's buffers and allocates almost nothing; a
per-round or per-(node, lane) allocation on the hot path inflates
allocs/op by orders of magnitude and fails the gate.

With --many the input is `go test -bench BenchmarkRunMany -benchmem`
output (internal/mis), and the check is the radiomisd job path's
steady-state contract: the "lockstep-cached" variant (one 64-trial cd job
on the 32x32 grid, borrowing its radio.Pool from the process-wide cache and
taking each lane's Result in a callback) must stay within a fixed B/op
budget (minimum across -count repeats). Fresh per-lane result arrays or a
pool built per call cost megabytes per op and fail the gate.

This is the coarse CI guard against gross regressions (a per-round or
per-vertex allocation inflates allocs/op by thousands). The fine-grained
contracts are enforced deterministically by TestPerfDisabledAddsNoAllocs /
TestPerfEnabledAddsNoPerRoundAllocs in internal/radio and
TestBatchesZeroAllocSteadyState in internal/schedule.

Exit status: 0 if every workload passes (and at least one was seen), 1
otherwise.
"""
import re
import sys

LINE = re.compile(
    r"^BenchmarkRun/(?P<engine>[\w-]+)/(?P<work>[\w=/.]+?)(?:-\d+)?\s+\d+\s+(?P<metrics>.*)$"
)
SOLVE_LINE = re.compile(
    r"^BenchmarkSolveBatch/(?P<variant>[\w-]+)/(?P<work>[\w=/.]+?)(?:-\d+)?\s+\d+\s+(?P<metrics>.*)$"
)
LOCKSTEP_LINE = re.compile(
    r"^BenchmarkRunLockstep/(?P<variant>[\w-]+)/(?P<work>[\w=/.]+?)(?:-\d+)?\s+\d+\s+(?P<metrics>.*)$"
)
MANY_LINE = re.compile(
    r"^BenchmarkRunMany/(?P<variant>[\w-]+)/(?P<work>[\w=/.]+?)(?:-\d+)?\s+\d+\s+(?P<metrics>.*)$"
)
ALLOCS = re.compile(r"(\d+) allocs/op")
BYTES = re.compile(r"(\d+) B/op")

# Steady-state allocs/op budget for one pooled 64-lane lockstep batch
# (a handful today: lane results go to a callback in the pool's buffers),
# with headroom for small structural changes. A per-round allocation
# would cost thousands per op and trips this immediately.
LANE_ALLOC_BUDGET = 256

# Steady-state B/op budget for one cached 64-trial lockstep job (about
# 21 KB today, most of it the CSR snapshot of the job's graph). The same
# job on a fresh pool with per-lane result arrays costs about 4.4 MB.
MANY_BYTES_BUDGET = 64 * 1024

# Allowed allocs/op increase of "perf" over "pooled": a constant for the
# per-run timing closure plus a relative term for scheduling jitter.
SLACK_ABS = 16
SLACK_REL = 0.03


def solvebatch_main(src):
    """--solvebatch mode: the warm planner variant must be zero-alloc."""
    seen = {}  # workload -> {variant: min allocs/op across repeats}
    for line in src:
        m = SOLVE_LINE.match(line.strip())
        if not m:
            continue
        a = ALLOCS.search(m.group("metrics"))
        if not a:
            continue
        work, variant, allocs = m.group("work"), m.group("variant"), int(a.group(1))
        variants = seen.setdefault(work, {})
        variants[variant] = min(variants.get(variant, allocs), allocs)

    planner = {w: v["planner"] for w, v in seen.items() if "planner" in v}
    if not planner:
        print(
            "benchallocs: no BenchmarkSolveBatch/planner lines found "
            "(did you pass -benchmem?)",
            file=sys.stderr,
        )
        return 1
    ok = True
    for work, allocs in sorted(planner.items()):
        status = "ok" if allocs == 0 else "REGRESSION"
        if allocs != 0:
            ok = False
        print(f"{status:10}  {work}: planner={allocs} allocs/op (want 0)")
    if not ok:
        print(
            "benchallocs: the warm batch planner allocates per call — "
            "the zero-allocation serving contract is broken",
            file=sys.stderr,
        )
        return 1
    print(f"benchallocs: planner zero-alloc across {len(planner)} workloads")
    return 0


def lockstep_main(src):
    """--lockstep mode: the pooled lane path stays within its alloc budget."""
    seen = {}  # workload -> {variant: min allocs/op across repeats}
    for line in src:
        m = LOCKSTEP_LINE.match(line.strip())
        if not m:
            continue
        a = ALLOCS.search(m.group("metrics"))
        if not a:
            continue
        work, variant, allocs = m.group("work"), m.group("variant"), int(a.group(1))
        variants = seen.setdefault(work, {})
        variants[variant] = min(variants.get(variant, allocs), allocs)

    pooled = {w: v["lockstep-pooled"] for w, v in seen.items() if "lockstep-pooled" in v}
    if not pooled:
        print(
            "benchallocs: no BenchmarkRunLockstep/lockstep-pooled lines found "
            "(did you pass -benchmem?)",
            file=sys.stderr,
        )
        return 1
    ok = True
    for work, allocs in sorted(pooled.items()):
        status = "ok" if allocs <= LANE_ALLOC_BUDGET else "REGRESSION"
        if allocs > LANE_ALLOC_BUDGET:
            ok = False
        print(
            f"{status:10}  {work}: lockstep-pooled={allocs} allocs/op "
            f"(budget {LANE_ALLOC_BUDGET} per 64-lane batch)"
        )
    if not ok:
        print(
            "benchallocs: the pooled lockstep batch allocates beyond its "
            "per-batch budget — a per-round or per-lane hot-path allocation "
            "likely crept in",
            file=sys.stderr,
        )
        return 1
    print(f"benchallocs: lockstep lane path within budget across {len(pooled)} workloads")
    return 0


def many_main(src):
    """--many mode: the cached RunManyFunc job path stays within its B/op budget."""
    seen = {}  # workload -> min B/op of lockstep-cached across repeats
    for line in src:
        m = MANY_LINE.match(line.strip())
        if not m or m.group("variant") != "lockstep-cached":
            continue
        b = BYTES.search(m.group("metrics"))
        if not b:
            continue
        work, nbytes = m.group("work"), int(b.group(1))
        seen[work] = min(seen.get(work, nbytes), nbytes)

    if not seen:
        print(
            "benchallocs: no BenchmarkRunMany/lockstep-cached lines found "
            "(did you pass -benchmem?)",
            file=sys.stderr,
        )
        return 1
    ok = True
    for work, nbytes in sorted(seen.items()):
        status = "ok" if nbytes <= MANY_BYTES_BUDGET else "REGRESSION"
        if nbytes > MANY_BYTES_BUDGET:
            ok = False
        print(
            f"{status:10}  {work}: lockstep-cached={nbytes} B/op "
            f"(budget {MANY_BYTES_BUDGET} per 64-trial job)"
        )
    if not ok:
        print(
            "benchallocs: a cached 64-trial lockstep job allocates beyond its "
            "steady-state budget — pool, lane twin or lane result reuse broke",
            file=sys.stderr,
        )
        return 1
    print(f"benchallocs: cached lockstep job within budget across {len(seen)} workloads")
    return 0


def main(argv):
    if "--many" in argv:
        argv = [a for a in argv if a != "--many"]
        return many_main(open(argv[1]) if len(argv) > 1 else sys.stdin)
    if "--solvebatch" in argv:
        argv = [a for a in argv if a != "--solvebatch"]
        return solvebatch_main(open(argv[1]) if len(argv) > 1 else sys.stdin)
    if "--lockstep" in argv:
        argv = [a for a in argv if a != "--lockstep"]
        return lockstep_main(open(argv[1]) if len(argv) > 1 else sys.stdin)
    src = open(argv[1]) if len(argv) > 1 else sys.stdin
    seen = {}  # workload -> {engine: min allocs/op across repeats}
    for line in src:
        m = LINE.match(line.strip())
        if not m:
            continue
        a = ALLOCS.search(m.group("metrics"))
        if not a:
            continue
        work, engine, allocs = m.group("work"), m.group("engine"), int(a.group(1))
        engines = seen.setdefault(work, {})
        engines[engine] = min(engines.get(engine, allocs), allocs)

    pairs = {w: e for w, e in seen.items() if "pooled" in e and "perf" in e}
    if not pairs:
        print(
            "benchallocs: no pooled/perf BenchmarkRun pairs found "
            "(did you pass -benchmem?)",
            file=sys.stderr,
        )
        return 1

    ok = True
    for work, engines in sorted(pairs.items()):
        pooled, perf = engines["pooled"], engines["perf"]
        slack = SLACK_ABS + int(SLACK_REL * pooled)
        delta = perf - pooled
        status = "ok" if delta <= slack else "REGRESSION"
        if delta > slack:
            ok = False
        print(
            f"{status:10}  {work}: pooled={pooled} perf={perf} allocs/op "
            f"(delta {delta:+d}, slack {slack})"
        )
    if not ok:
        print(
            "benchallocs: telemetry allocs/op regressed beyond slack — "
            "RunPerf's no-allocation contract is likely broken",
            file=sys.stderr,
        )
        return 1
    print(f"benchallocs: telemetry allocation-neutral across {len(pairs)} workloads")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
