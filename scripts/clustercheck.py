#!/usr/bin/env python3
"""Submit a radiomisd solve job and compare job results byte for byte.

`run BASE` submits one solve job to the daemon at BASE (host:port or full
URL), polls it to completion, and prints the job's `result` object as
canonical JSON (sorted keys, no whitespace) on stdout. The engine is
deterministic per seed, so two runs of the same request print identical
bytes wherever they execute: on a fresh daemon, or replayed from a WAL
after a crash.

`compare A.json B.json` asserts exactly that: the two files parse to
equal JSON. On mismatch it prints the first differing path and exits 1.

Exit status: 0 on success, 1 on any failure. Stdlib only.
"""
import argparse
import json
import sys
import time
import urllib.error
import urllib.request


def base_url(base):
    if not base.startswith("http"):
        base = "http://" + base
    return base.rstrip("/")


def get_json(url, timeout=10):
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return json.load(resp)


def post_json(url, payload, timeout=10):
    req = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return json.load(resp)


def canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def cmd_run(args):
    base = base_url(args.base)
    payload = {
        "kind": "solve",
        "algorithm": args.algorithm,
        "n": args.n,
        "trials": args.trials,
        "seed": args.seed,
    }
    st = post_json(base + "/v1/jobs", payload)
    job_id = st["id"]
    print(f"submitted {job_id} to {base}", file=sys.stderr)

    deadline = time.monotonic() + args.timeout
    while time.monotonic() < deadline:
        st = get_json(f"{base}/v1/jobs/{job_id}")
        state = st["state"]
        if state == "done":
            print(canonical(st["result"]))
            return 0
        if state in ("failed", "canceled"):
            print(f"job {job_id} ended {state}: {st.get('error', '')}", file=sys.stderr)
            return 1
        time.sleep(0.25)
    print(f"job {job_id} did not finish within {args.timeout}s", file=sys.stderr)
    return 1


def diff_path(a, b, path="$"):
    """Return the first path where a and b differ, or None."""
    if type(a) is not type(b):
        return f"{path}: type {type(a).__name__} != {type(b).__name__}"
    if isinstance(a, dict):
        for k in sorted(set(a) | set(b)):
            if k not in a:
                return f"{path}.{k}: only in second"
            if k not in b:
                return f"{path}.{k}: only in first"
            d = diff_path(a[k], b[k], f"{path}.{k}")
            if d:
                return d
        return None
    if isinstance(a, list):
        if len(a) != len(b):
            return f"{path}: length {len(a)} != {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            d = diff_path(x, y, f"{path}[{i}]")
            if d:
                return d
        return None
    if a != b:
        return f"{path}: {a!r} != {b!r}"
    return None


def cmd_compare(args):
    with open(args.a) as f:
        a = json.load(f)
    with open(args.b) as f:
        b = json.load(f)
    if canonical(a) == canonical(b):
        print(f"results identical: {args.a} == {args.b}")
        return 0
    d = diff_path(a, b) or "(unknown difference)"
    print(f"results differ: {d}", file=sys.stderr)
    return 1


def main():
    p = argparse.ArgumentParser(description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    run = sub.add_parser("run", help="submit a solve job, print its result JSON")
    run.add_argument("base")
    run.add_argument("--algorithm", default="cd")
    run.add_argument("--n", type=int, default=2000)
    run.add_argument("--trials", type=int, default=24)
    run.add_argument("--seed", type=int, default=7)
    run.add_argument("--timeout", type=float, default=300)
    run.set_defaults(fn=cmd_run)

    cmp_ = sub.add_parser("compare", help="assert two result files are identical")
    cmp_.add_argument("a")
    cmp_.add_argument("b")
    cmp_.set_defaults(fn=cmd_compare)

    args = p.parse_args()
    try:
        sys.exit(args.fn(args))
    except (urllib.error.URLError, OSError) as e:
        print(f"clustercheck: {e}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
