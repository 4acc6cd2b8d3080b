#!/usr/bin/env python3
"""Check the deterministic rounds/op metric of BenchmarkRun* for engine drift.

Reads `go test -bench` output (a file argument or stdin) and asserts that,
for every workload, all engine variants report the identical rounds/op:

- BenchmarkRun (internal/radio): the reference engine and the round
  scheduler, standalone, pooled and with RunPerf attached;
- BenchmarkRunMany (internal/mis): the cd lane twin on the lockstep engine,
  fresh, pooled and on a cached pool with callback results, against the
  pooled scalar engine; and Algorithm 2 (nocd) on the 8x8 grid, on the
  scalar engine fresh and pooled.

The metric is fully deterministic — seeds are fixed and all engines are
bit-identical by contract — so any disagreement means an engine's
simulation behavior drifted, not just its speed.

Exit status: 0 if all engines agree (and at least one workload was seen),
1 otherwise.
"""
import re
import sys

LINE = re.compile(
    r"^(?P<bench>BenchmarkRun(?:Many)?)/(?P<engine>[\w-]+)/(?P<work>[\w=/.]+?)(?:-\d+)?\s+\d+\s+(?P<metrics>.*)$"
)
ROUNDS = re.compile(r"([\d.]+) rounds/op")


def main(argv):
    src = open(argv[1]) if len(argv) > 1 else sys.stdin
    seen = {}  # (benchmark, workload) -> {engine: rounds/op}
    for line in src:
        m = LINE.match(line.strip())
        if not m:
            continue
        r = ROUNDS.search(m.group("metrics"))
        if not r:
            continue
        key = (m.group("bench"), m.group("work"))
        seen.setdefault(key, {})[m.group("engine")] = float(r.group(1))

    if not seen:
        print("benchrounds: no BenchmarkRun or BenchmarkRunMany results found in input",
              file=sys.stderr)
        return 1

    ok = True
    for (bench, work), engines in sorted(seen.items()):
        values = sorted(set(engines.values()))
        status = "ok" if len(values) == 1 else "DRIFT"
        if len(values) != 1:
            ok = False
        detail = ", ".join(f"{e}={v}" for e, v in sorted(engines.items()))
        print(f"{status:5}  {bench}/{work}: {detail}")
        if len(engines) < 2 or (bench == "BenchmarkRun" and "reference" not in engines):
            print(f"WARN   {bench}/{work}: fewer than two engines reported", file=sys.stderr)
    if not ok:
        print("benchrounds: engines disagree on rounds/op — engine behavior drifted",
              file=sys.stderr)
        return 1
    print(f"benchrounds: all engines agree on rounds/op across {len(seen)} workloads")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
