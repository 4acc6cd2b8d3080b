#!/usr/bin/env python3
"""Summarize paired radiobench runs of a parent commit and a change.

Usage: benchpairs.py BENCH_FILE [BENCHMARK.json]

BENCH_FILE (e.g. BENCH_17.json) holds radiobench result lines in a list
"runs". Each entry has "side" ("parent" or "change"), "host" (the run's
host header: workload, seed, seconds, trace, CPU, Go version) and
"result" (the run's last output line); a traced run also has
"handlerLatencyMs" and "counts", its two exact-count lines. Untraced
runs (host.trace 0) of the two sides pair up by workload and seed.

For each workload and each end-to-end metric of BENCHMARK.json (default:
the one at the repository root) it prints both sides' median and
quartiles, the change/parent ratio of the medians, and how many pairs
the change won (ties count for neither side). "IQR" says whether the
medians differ by more than the parent's interquartile range. Traced
runs are listed after that, per workload: their handler latency and
per-layer metrics side by side, and whether every run's exact counts
agree.

Exit status: 1 when a run reports correct=false, when the change fails
a larger share of operations than the parent on some workload, or when
an end-to-end metric's change median is worse than the parent's by more
than the metric's bound in BENCHMARK.json; 0 otherwise.
"""

import json
import os
import statistics
import sys

SIDES = ("parent", "change")


def quartiles(xs):
    """(q1, median, q3) of xs, interpolating between order statistics."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    return tuple(statistics.quantiles(xs, n=4, method="inclusive"))


def pairs_of(runs, workload):
    """{seed: {side: result}} for the untraced runs of workload, complete pairs only."""
    by_seed = {}
    for r in runs:
        h = r["host"]
        if h["workload"] == workload and h["trace"] == 0:
            by_seed.setdefault(h["seed"], {})[r["side"]] = r["result"]
    return [by_seed[s] for s in sorted(by_seed) if set(by_seed[s]) == set(SIDES)]


def check_pairs(workload, pairs, spec):
    """Print the workload's end-to-end table; return False on a broken bound."""
    ok = True
    print(f"{workload}: {len(pairs)} pairs")
    share = {}
    for side in SIDES:
        failed = sum(p[side]["failed"] for p in pairs)
        attempted = sum(p[side]["attempted"] for p in pairs)
        share[side] = failed / attempted if attempted else 0.0
        print(f"  {side:<6} failed {failed} of {attempted} operations")
    if share["change"] > share["parent"]:
        print("  FAIL: the change fails a larger share of operations")
        ok = False
    print(f"  {'metric':<18} {'parent median [q1, q3]':>30} {'change median [q1, q3]':>30}"
          f" {'ratio':>7} {'wins':>6} {'IQR':>4}  bound")
    for m in spec["end_to_end"]:
        name, better, bound = m["name"], m["better"], m["bound"]
        par = [p["parent"]["metrics"][name]["value"] for p in pairs]
        chg = [p["change"]["metrics"][name]["value"] for p in pairs]
        pq, cq = quartiles(par), quartiles(chg)
        wins = sum(c > p if better == "higher" else c < p for p, c in zip(par, chg))
        ratio = cq[1] / pq[1] if pq[1] else float("nan")
        worse = (1 - ratio) if better == "higher" else (ratio - 1)
        clears = "yes" if abs(cq[1] - pq[1]) > pq[2] - pq[0] else "no"
        verdict = "ok"
        if worse > bound:
            verdict, ok = f"FAIL (worse by {worse:.1%} > {bound:.0%})", False
        fmt = lambda q: f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
        print(f"  {name:<18} {fmt(pq):>30} {fmt(cq):>30} {ratio:>6.3f}x"
              f" {wins:>3}/{len(pairs):<2} {clears:>4}  {verdict}")
    return ok


def print_traced(runs, workload):
    """Print the traced runs of workload: per-layer metrics side by side."""
    traced = [r for r in runs if r["host"]["workload"] == workload and r["host"]["trace"] == 1]
    if not traced:
        return
    print(f"{workload} traced: " + ", ".join(
        f"{side} seeds {[r['host']['seed'] for r in traced if r['side'] == side]}" for side in SIDES))
    rows = {"handler latency ms/op": lambda r: r.get("handlerLatencyMs")}
    for name in sorted({n for r in traced for n in r["result"]["metrics"]}):
        rows[name] = lambda r, name=name: r["result"]["metrics"].get(name, {}).get("value")
    for name, value in rows.items():
        cols = []
        for side in SIDES:
            vals = [value(r) for r in traced if r["side"] == side]
            cols.append(" ".join(f"{v:.4g}" for v in vals if v is not None))
        print(f"  {name:<32} {cols[0]:>24} | {cols[1]}")
    counts = {tuple(r.get("counts", [])) for r in traced}
    print("  exact counts: " + ("identical in every run" if len(counts) == 1 else "DIFFER"))
    for line in sorted(counts)[0]:
        print(f"    {line}")


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        runs = json.load(f)["runs"]
    spec_path = argv[2] if len(argv) == 3 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)

    ok = True
    for r in runs:
        if not r["result"]["correct"]:
            h = r["host"]
            print(f"FAIL: {r['side']} {h['workload']} seed {h['seed']} trace {h['trace']}: correct=false")
            ok = False
    present = {r["host"]["workload"] for r in runs}
    for w in [w["name"] for w in spec["workloads"] if w["name"] in present]:
        pairs = pairs_of(runs, w)
        if pairs:
            ok = check_pairs(w, pairs, spec) and ok
        print_traced(runs, w)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
