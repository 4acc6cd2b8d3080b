#!/usr/bin/env python3
"""Collect and summarize paired radiobench runs of a parent commit and a change.

Usage: benchpairs.py BENCH_FILE [BENCHMARK.json]
       benchpairs.py collect --parent DIR --change DIR --workloads W[,W...]
                             --seeds SEEDS --out FILE
       benchpairs.py trend BENCH_FILE...

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

collect writes such a file. Both checkouts must hold the same radiobench/
and BENCHMARK.json; it runs `bash radiobench/run.sh` in each. Per
workload, it runs one untraced pair per seed (SEEDS is a list such as
61-70 or 61,63), each as long as run_seconds in the repository root's
BENCHMARK.json, starting with the parent on the first seed and switching
the side that runs first at every seed ("ranFirst"); then three traced
runs a side at seed 7, 10 s each, alternating the same way. Progress
goes to standard error. The file is written once every run has
finished, with each run that printed a result line. Exit status: 1 when
any run exits non-zero or prints no result line, else 0.

trend reads several such files, in the order given (e.g. BENCH_17.json
BENCH_19.json BENCH_21.json), and prints per workload and end-to-end
metric each file's change/parent ratio of the medians with its pair
wins, and below it the running product of the ratios: the workload's
trajectory across the changes the files record. A file without pairs
of a workload shows "-" and leaves the product as it was. It prints
ratios rather than absolute medians because the host's speed drifts
between collections: the same commit can read twice as fast in one
collection as in another. Exit status 0.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

SIDES = ("parent", "change")
SPEC_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")


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


def compare(pairs, name, better):
    """Both sides' (q1, median, q3) of metric name over pairs, and the change's wins."""
    par = [p["parent"]["metrics"][name]["value"] for p in pairs]
    chg = [p["change"]["metrics"][name]["value"] for p in pairs]
    wins = sum(c > p if better == "higher" else c < p for p, c in zip(par, chg))
    return quartiles(par), quartiles(chg), wins


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
        pq, cq, wins = compare(pairs, name, better)
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


# collect's traced runs: TRACED_RUNS a side and workload, all at one seed.
TRACED_SEED, TRACED_SECONDS, TRACED_RUNS = 7, 10, 3
UNTRACED = "bash radiobench/run.sh --workload W --seed S --seconds {seconds:g} --trace 0"
TRACED = f"bash radiobench/run.sh --workload W --seed {TRACED_SEED} --seconds {TRACED_SECONDS} --trace 1"


def parse_seeds(spec):
    """[61, ..., 70] from "61-70"; comma-separated items and ranges mix."""
    seeds = []
    for item in spec.split(","):
        lo, _, hi = item.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_side(side, checkout, workload, seed, seconds, trace, ran_first):
    """Run radiobench once in checkout; return (entry or None, error or None).

    A run that prints its host header and result line yields an entry even
    when it fails (exits non-zero, e.g. on correct=false)."""
    cmd = ["bash", "radiobench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    host = next((json.loads(l[5:]) for l in lines if l.startswith("host ")), None)
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    err = None
    if proc.returncode != 0 or host is None or result is None:
        tail = (proc.stderr.strip().splitlines() or ["no result line"])[-1]
        err = f"exit {proc.returncode}: {tail}"
    if host is None or result is None:
        return None, err
    entry = {"side": side, "ranFirst": ran_first, "host": host, "result": result}
    if trace:
        m = next((re.search(r"handler latency ([0-9.eE+-]+) ms/op", l) for l in lines
                  if "handler latency" in l), None)
        entry["handlerLatencyMs"] = float(m.group(1)) if m else None
        entry["counts"] = [l for l in lines if l.startswith("counts over ")]
    return entry, err


def git_rev(checkout):
    """The short commit hash of checkout, or None outside a git checkout."""
    proc = subprocess.run(["git", "-C", checkout, "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def collect(argv):
    ap = argparse.ArgumentParser(prog="benchpairs.py collect",
                                 description="Collect paired radiobench runs of a parent and a change.")
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    ap.add_argument("--workloads", required=True, help="comma-separated radiobench workloads")
    ap.add_argument("--seeds", required=True, type=parse_seeds, help="untraced seeds, e.g. 61-70")
    ap.add_argument("--out", required=True, help="the BENCH_*.json file to write")
    args = ap.parse_args(argv)
    dirs = {"parent": args.parent, "change": args.change}
    with open(SPEC_PATH) as f:
        run_seconds = json.load(f)["run_seconds"]

    plan = []  # (workload, seed, trace, side order)
    for w in args.workloads.split(","):
        for i, seed in enumerate(args.seeds):
            plan.append((w, seed, 0, SIDES if i % 2 == 0 else SIDES[::-1]))
        for i in range(TRACED_RUNS):
            plan.append((w, TRACED_SEED, 1, SIDES if i % 2 == 0 else SIDES[::-1]))
    runs, errors = [], []
    done, total = 0, 2 * len(plan)
    for w, seed, trace, order in plan:
        seconds = TRACED_SECONDS if trace else run_seconds
        for side in order:
            entry, err = run_side(side, dirs[side], w, seed, seconds, trace, side == order[0])
            label = f"{w} seed {seed} trace {trace} {side}"
            if entry:
                runs.append(entry)
            if err:
                errors.append(f"{label}: {err}")
            done += 1
            status = err or (f"handler latency {entry['handlerLatencyMs']} ms/op" if trace else
                             f"throughput {entry['result']['metrics']['throughput_per_s']['value']:.4g}/s")
            print(f"[{done}/{total}] {label}: {status}", file=sys.stderr, flush=True)

    name = os.path.basename(args.out)
    doc = {
        "schema": "radiomis.benchpairs/v1",
        "description": "radiobench result lines of the parent commit and of the change that adds "
                       "this file, run alternately on one host; untraced runs pair up by workload "
                       "and seed (ranFirst tells which side of a pair ran first), traced runs "
                       f"record the exact counts. Summarize with: python3 scripts/benchpairs.py {name}",
        "parent": git_rev(args.parent),
        "commands": {"untraced": UNTRACED.format(seconds=run_seconds), "traced": TRACED},
    }
    # One run a line keeps the file readable and its diffs small.
    lines = ",\n".join("  " + json.dumps(r, separators=(",", ":")) for r in runs)
    with open(args.out, "w") as f:
        f.write(json.dumps(doc, indent=1)[:-2] + f',\n "runs": [\n{lines}\n ]\n}}\n')
    for err in errors:
        print(f"FAIL: {err}", file=sys.stderr)
    return 1 if errors else 0


def trend(paths):
    """Print each file's change/parent median ratios and wins, and their running product."""
    with open(SPEC_PATH) as f:
        spec = json.load(f)
    files = []
    for path in paths:
        with open(path) as f:
            files.append((os.path.basename(path), json.load(f)["runs"]))
    width = max(16, *(len(name) + 2 for name, _ in files))
    for w in [w["name"] for w in spec["workloads"]]:
        pairs = [pairs_of(runs, w) for _, runs in files]
        if not any(pairs):
            continue
        print(f"{w}: change/parent median ratio and pair wins; running product below")
        print(f"  {'metric':<20}" + "".join(f"{name:>{width}}" for name, _ in files))
        for m in spec["end_to_end"]:
            name, better = m["name"], m["better"]
            cells, products, product = [], [], 1.0
            for ps in pairs:
                if not ps:
                    cells.append("-")
                    products.append("-")
                    continue
                pq, cq, wins = compare(ps, name, better)
                ratio = cq[1] / pq[1]
                product *= ratio
                cells.append(f"{ratio:.3f}x {wins}/{len(ps)}")
                products.append(f"{product:.3f}x")
            print(f"  {name:<20}" + "".join(f"{c:>{width}}" for c in cells))
            print(f"  {'  running product':<20}" + "".join(f"{c:>{width}}" for c in products))
    return 0


def main(argv):
    if len(argv) > 1 and argv[1] == "collect":
        return collect(argv[2:])
    if len(argv) > 2 and argv[1] == "trend":
        return trend(argv[2:])
    if len(argv) not in (2, 3) or argv[1] == "trend":
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        runs = json.load(f)["runs"]
    with open(argv[2] if len(argv) == 3 else SPEC_PATH) as f:
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
