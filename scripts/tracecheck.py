#!/usr/bin/env python3
"""Validate a Chrome trace-event export of the span tracer.

Reads a Chrome trace JSON array (a file argument or stdin) — as written
by `radiomisd /debug/traces?format=chrome`, `radiomis -trace`, or
`benchsuite -trace` — and checks the structural invariants the tracing
layer promises:

* the file is a valid JSON array of complete ("ph": "X") events;
* every span event carries traceId/spanId args in lowercase hex of the
  right width (32 / 16 digits);
* parent links connect: every event with a parentSpanId whose parent was
  exported points at an event of the same trace;
* each span name passed via --expect appears at least once;
* with --trace-id, at least one *connected* tree on that exact trace ID
  contains every expected name — the acceptance criterion for the daemon
  round-trip (an inbound traceparent must come back out as one causally
  linked tree, not as disconnected fragments).

Exit status: 0 if all checks pass, 1 otherwise.
"""
import argparse
import json
import re
import sys

HEX32 = re.compile(r"^[0-9a-f]{32}$")
HEX16 = re.compile(r"^[0-9a-f]{16}$")


def fail(msg):
    print(f"tracecheck: {msg}", file=sys.stderr)
    return 1


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("file", nargs="?", help="Chrome trace JSON (default: stdin)")
    ap.add_argument(
        "--expect",
        action="append",
        default=[],
        help="span name that must appear (repeatable)",
    )
    ap.add_argument(
        "--trace-id",
        help="require a connected tree on this trace ID containing every --expect name",
    )
    args = ap.parse_args(argv[1:])

    src = open(args.file) if args.file else sys.stdin
    try:
        events = json.load(src)
    except json.JSONDecodeError as e:
        return fail(f"not valid JSON: {e}")
    if not isinstance(events, list):
        return fail("top-level value is not a JSON array")

    # Index the span events (the observer layer's phase events live on
    # other pids and carry no traceId; they are ignored here).
    spans = []
    by_span_id = {}
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            return fail(f"event {i} is not an object")
        a = ev.get("args") or {}
        if "traceId" not in a:
            continue
        tid, sid = a["traceId"], a.get("spanId", "")
        if not HEX32.match(str(tid)):
            return fail(f"event {i} ({ev.get('name')!r}): bad traceId {tid!r}")
        if not HEX16.match(str(sid)):
            return fail(f"event {i} ({ev.get('name')!r}): bad spanId {sid!r}")
        if ev.get("ph") != "X":
            return fail(f"event {i} ({ev.get('name')!r}): span event ph={ev.get('ph')!r}, want X")
        spans.append(ev)
        by_span_id[(tid, sid)] = ev

    if not spans:
        return fail("no span events (traceId args) in the trace")

    # Parent links: an exported parent must share the trace. A missing
    # parent is legal (ring eviction, or an inbound traceparent's remote
    # span) — a *cross-trace* parent never is.
    all_span_ids = {sid for (_, sid) in by_span_id}
    for ev in spans:
        a = ev["args"]
        parent = a.get("parentSpanId")
        if not parent:
            continue
        if (a["traceId"], parent) not in by_span_id and parent in all_span_ids:
            return fail(
                f"span {ev.get('name')!r} parent {parent} belongs to another trace"
            )

    names = {ev.get("name") for ev in spans}
    missing = [n for n in args.expect if n not in names]
    if missing:
        return fail(f"expected span names missing: {missing} (have {sorted(names)})")

    if args.trace_id:
        tid = args.trace_id.lower()
        tree = [ev for ev in spans if ev["args"]["traceId"] == tid]
        if not tree:
            return fail(f"no spans on trace {tid}")
        tree_names = {ev.get("name") for ev in tree}
        missing = [n for n in args.expect if n not in tree_names]
        if missing:
            return fail(
                f"trace {tid} is missing spans: {missing} (has {sorted(tree_names)})"
            )
        # Connectivity: every non-root span whose parent was exported must
        # reach a parentless span of the tree by walking parent links.
        ids = {ev["args"]["spanId"]: ev for ev in tree}
        for ev in tree:
            cur, hops = ev, 0
            while hops < 64:
                parent = cur["args"].get("parentSpanId")
                if not parent or parent not in ids:
                    break  # reached a root (or an unexported remote parent)
                cur = ids[parent]
                hops += 1
            if hops >= 64:
                return fail(f"span {ev.get('name')!r} parent chain does not terminate")
        print(
            f"tracecheck: trace {tid}: {len(tree)} spans, "
            f"{len(tree_names)} distinct names, all expectations met"
        )

    print(
        f"tracecheck: {len(spans)} span events across "
        f"{len({ev['args']['traceId'] for ev in spans})} traces — ok"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
