#!/usr/bin/env python3
"""Validate a Chrome trace-event JSON file produced by --trace-out.

Checks:

1. The file parses as JSON with a `traceEvents` array of complete
   events (`"ph": "X"`) carrying name/ts/dur/pid/tid.
2. Per pid (one pid per traced query): exactly one root `query` span,
   and the expected lifecycle phases underneath it:
   - a result-cache hit (root arg `result_cache_hit=true`) needs
     `queue_wait` and `result_cache_lookup`; a dedup follower (root arg
     `deduped=true`) needs `dedup_wait` as well. Both were answered
     without executing, so neither may have a `parse`, `plan`, `eval` or
     `serialize` span;
   - every other query needs `queue_wait`, `eval` and `serialize`, plus
     `parse` and `plan` whenever it was not a plan-cache hit (root arg
     `cache_hit`).
3. Containment — every event nests inside the query span of its pid
   (start >= query start, end <= query end, small clock slop allowed).
4. Names — every span name is one the program records, and the executor's
   operator spans (`join`, `leftjoin`, `union`, `filter`, `candidates`)
   carry their `rows_in` and `rows_out` arguments.

Usage: tools/check_trace.py TRACE_FILE [--min-queries N]
Exit status: 0 = valid, 1 = validation errors (all printed).
"""
import json
import sys

SLOP_US = 5  # steady_clock reads on different threads; keep a tiny margin
EXECUTION_PHASES = {"parse", "plan", "eval", "serialize"}
OPERATOR_SPANS = {"join", "leftjoin", "union", "filter", "candidates"}
KNOWN_SPANS = EXECUTION_PHASES | OPERATOR_SPANS | {
    "query", "queue_wait", "plan_cache_lookup", "result_cache_lookup",
    "dedup_wait", "transform", "bgp", "morsel", "path", "aggregate",
}


def main():
    args = sys.argv[1:]
    min_queries = 1
    if "--min-queries" in args:
        i = args.index("--min-queries")
        min_queries = int(args[i + 1])
        del args[i:i + 2]
    if len(args) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    path = args[0]

    errors = []
    with open(path, encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            print(f"{path}: not valid JSON: {e}", file=sys.stderr)
            return 1

    events = doc.get("traceEvents")
    if not isinstance(events, list):
        print(f"{path}: missing traceEvents array", file=sys.stderr)
        return 1

    by_pid = {}
    for idx, ev in enumerate(events):
        for key in ("name", "ph", "ts", "dur", "pid", "tid"):
            if key not in ev:
                errors.append(f"{path}: event {idx} missing {key!r}")
                break
        else:
            if ev["ph"] != "X":
                errors.append(
                    f"{path}: event {idx} has ph={ev['ph']!r}, expected 'X'")
                continue
            by_pid.setdefault(ev["pid"], []).append(ev)

    if len(by_pid) < min_queries:
        errors.append(
            f"{path}: {len(by_pid)} traced queries, expected >= {min_queries}")

    for pid, evs in sorted(by_pid.items()):
        roots = [e for e in evs if e["name"] == "query"]
        if len(roots) != 1:
            errors.append(f"{path}: pid {pid}: {len(roots)} 'query' spans, "
                          f"expected exactly 1")
            continue
        root = roots[0]
        names = {e["name"] for e in evs}
        args = root.get("args", {})

        def flag(key):
            return str(args.get(key, "")) == "true"

        cache_hit = flag("cache_hit")
        served = flag("result_cache_hit") or flag("deduped")
        if served:
            required = {"queue_wait", "result_cache_lookup"}
            if flag("deduped"):
                required |= {"dedup_wait"}
            executed = names & EXECUTION_PHASES
            if executed:
                errors.append(
                    f"{path}: pid {pid}: served without executing, but has "
                    f"phase spans {sorted(executed)}")
        else:
            required = {"eval", "serialize", "queue_wait"}
            if not cache_hit:
                required |= {"parse", "plan"}
        missing = required - names
        if missing:
            errors.append(
                f"{path}: pid {pid}: missing phase spans {sorted(missing)} "
                f"(cache_hit={cache_hit}, served={served}, "
                f"have {sorted(names)})")
        q_start, q_end = root["ts"], root["ts"] + root["dur"]
        for e in evs:
            if e["name"] not in KNOWN_SPANS:
                errors.append(f"{path}: pid {pid}: unknown span {e['name']!r}")
            if e["name"] in OPERATOR_SPANS:
                missing_args = {"rows_in", "rows_out"} - set(e.get("args", {}))
                if missing_args:
                    errors.append(
                        f"{path}: pid {pid}: span {e['name']!r} lacks "
                        f"{sorted(missing_args)}")
            if e is root:
                continue
            if (e["ts"] < q_start - SLOP_US or
                    e["ts"] + e["dur"] > q_end + SLOP_US):
                errors.append(
                    f"{path}: pid {pid}: span {e['name']!r} "
                    f"[{e['ts']}, {e['ts'] + e['dur']}] escapes query span "
                    f"[{q_start}, {q_end}]")

    for e in errors:
        print(e, file=sys.stderr)
    if not errors:
        print(f"{path}: OK ({len(by_pid)} queries, {len(events)} spans)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
