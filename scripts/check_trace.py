#!/usr/bin/env python3
"""Validate an anadex JSONL trace (docs/observability.md).

Usage:
    check_trace.py TRACE.jsonl [--algo mesacga] [--level gen|eval] [--segments]

Checks that every line parses as a standalone JSON object, that the file is
framed by a trace_start header (schema anadex-trace/v1) and a trace_end
trailer whose event count matches, that per-event required keys are
present, and — for the SACGA family — that the paper's telemetry actually
made it into the trace (partition occupancy, T_A, hypervolume).

With --segments the file may hold SEVERAL consecutive header..trailer
segments — one per JsonlTraceWriter lifetime. That is the shape of the
`anadex serve` service trace (serve_trace.jsonl), which appends one segment
per daemon lifetime (docs/serve.md). A run's trace, solo or served, is one
segment however the job is sliced. Each segment is framed and counted
independently; without --segments a multi-segment file is an error,
preserving the strict single-run contract.

Exits nonzero with a line-numbered message on the first structural problem.
Only the standard library is used.
"""

import argparse
import json
import sys

TRACE_SCHEMA = "anadex-trace/v1"

# Keys every event of a given kind must carry (beyond "ev").
REQUIRED_KEYS = {
    "trace_start": ["schema", "level"],
    "trace_end": ["events"],
    "run_start": ["algo", "population", "generations", "seed"],
    "run_end": ["evaluations", "generations", "front_size", "front_area", "hv"],
    "gen": ["gen", "evals", "pop", "feasible", "front_size"],
    "sacga": ["gen", "phase", "partitions", "occupancy", "occupancy_feasible"],
    "phase_start": ["phase", "partitions", "gen"],
    "phase_end": ["phase", "partitions", "gen", "front_size"],
    "batch": ["t", "size", "workers", "wall_s"],
    "eval_engine": ["t", "batches", "items"],
    "env": ["threads", "hardware_concurrency", "lane_isa"],
    "timer": ["name", "seconds"],
    "migration": ["gen", "migrations"],
}

# ev kinds that only exist at eval level and must NOT appear in a gen trace
# (they carry wall-clock data, which would break determinism guarantees).
EVAL_ONLY = {"batch", "eval_engine", "env", "timer"}


def fail(lineno: int, message: str) -> int:
    print(f"error: line {lineno}: {message}", file=sys.stderr)
    return 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", help="JSONL trace file")
    parser.add_argument("--algo", default="", help="expect SACGA-family telemetry "
                        "(sacga/mesacga/localonly): occupancy, and T_A + hv for "
                        "annealing algorithms")
    parser.add_argument("--level", default="", choices=["", "gen", "eval"],
                        help="expected trace level recorded in the header")
    parser.add_argument("--segments", action="store_true",
                        help="allow multiple appended header..trailer segments "
                             "(one per writer lifetime — e.g. one per daemon "
                             "run in serve_trace.jsonl); each segment is "
                             "validated independently")
    args = parser.parse_args()

    events = []
    with open(args.trace, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                return fail(lineno, "blank line inside trace")
            try:
                event = json.loads(line)
            except json.JSONDecodeError as err:
                return fail(lineno, f"unparseable JSON: {err}")
            if not isinstance(event, dict):
                return fail(lineno, "line is not a JSON object")
            if "ev" not in event:
                return fail(lineno, "missing 'ev' key")
            for key in REQUIRED_KEYS.get(event["ev"], []):
                if key not in event:
                    return fail(lineno, f"event '{event['ev']}' missing key '{key}'")
            events.append((lineno, event))

    if not events:
        print("error: trace is empty", file=sys.stderr)
        return 1

    # Cut the file into trace_start..trace_end segments (one per writer
    # lifetime; appended traces hold several back to back).
    segments = []
    current = None
    for lineno, event in events:
        if event["ev"] == "trace_start":
            if current is not None:
                return fail(lineno, "trace_start before the previous segment's "
                                    "trace_end")
            current = [(lineno, event)]
            continue
        if current is None:
            return fail(lineno, "event outside a trace_start..trace_end segment")
        current.append((lineno, event))
        if event["ev"] == "trace_end":
            segments.append(current)
            current = None
    if current is not None:
        return fail(current[-1][0], "unterminated segment: missing trace_end")
    if len(segments) > 1 and not args.segments:
        return fail(segments[1][0][0], f"{len(segments)} segments in one trace; "
                                       "pass --segments for appended traces")

    for segment in segments:
        first_no, first = segment[0]
        if first["schema"] != TRACE_SCHEMA:
            return fail(first_no, f"unknown schema '{first['schema']}'")
        if args.level and first["level"] != args.level:
            return fail(first_no,
                        f"expected level '{args.level}', got '{first['level']}'")
        last_no, last = segment[-1]
        if last["events"] != len(segment):
            return fail(last_no, f"trailer counts {last['events']} events, "
                                 f"segment has {len(segment)}")
        if first["level"] == "gen":
            for lineno, event in segment:
                if event["ev"] in EVAL_ONLY or "t" in event:
                    return fail(lineno,
                                f"wall-clock event '{event['ev']}' in a gen trace")

    kinds = {event["ev"] for _, event in events}
    if "gen" not in kinds:
        print("error: trace has no per-generation 'gen' events", file=sys.stderr)
        return 1
    if not any("hv" in event for _, event in events if event["ev"] == "gen"):
        print("error: no 'gen' event carries a hypervolume", file=sys.stderr)
        return 1

    if args.algo in ("sacga", "mesacga", "localonly"):
        sacga_events = [event for _, event in events if event["ev"] == "sacga"]
        if not sacga_events:
            print("error: SACGA-family run recorded no 'sacga' events", file=sys.stderr)
            return 1
        if not all(len(event["occupancy"]) == event["partitions"]
                   for event in sacga_events):
            print("error: occupancy array length != partition count", file=sys.stderr)
            return 1
    if args.algo in ("sacga", "mesacga"):
        if not any("t_a" in event for _, event in events if event["ev"] == "sacga"):
            print("error: annealing run recorded no T_A samples", file=sys.stderr)
            return 1

    gen_count = sum(1 for _, event in events if event["ev"] == "gen")
    print(f"ok: {len(events)} events ({gen_count} generations, "
          f"{len(segments)} segment(s)), schema {TRACE_SCHEMA}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
