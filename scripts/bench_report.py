#!/usr/bin/env python3
"""Fold the BENCH_*.json files the benchmark binaries emit into one
schema-stable summary (anadex-bench-summary/v1) and optionally validate
each input against the keys CI depends on.

Usage:
    bench_report.py [--dir DIR] [--out FILE] [--validate]

  --dir DIR    directory holding BENCH_*.json files (default: cwd)
  --out FILE   write the summary JSON here (default: stdout)
  --validate   exit nonzero when a BENCH file is missing required keys,
               is unparseable, or reports a failed self-check

Only the standard library is used, so the script runs on any CI image.
"""

import argparse
import json
import sys
from pathlib import Path

SUMMARY_SCHEMA = "anadex-bench-summary/v1"

# Keys every BENCH_*.json must carry, plus per-bench keys CI inspects.
REQUIRED_COMMON = ["bench"]
REQUIRED_BY_BENCH = {
    "eval_throughput": [
        "batch_size",
        "repeats",
        "hardware_threads",
        "lane_isa",
        "results",
        "duplicate_rates",
        "cache_ok",
        "robust_overhead_ratio",
        "robust_ok",
        "simd_speedup",
        "simd_lane_groups",
        "simd_bit_identical",
        "simd_gate_enforced",
        "simd_gate_floor",
        "simd_ok",
        "shard_workers",
        "shard_solo_seconds",
        "shard_seconds",
        "shard_speedup",
        "shard_bit_identical",
        "shard_gate_enforced",
        "shard_ok",
    ],
    "kernels": ["results", "sweep_speedup_at_512", "sweep_ok"],
    "obs_overhead": [
        "generations",
        "repeats",
        "budget_pct",
        "gen_overhead_pct",
        "within_budget",
        "results_identical",
        "results",
    ],
}

# Per-bench predicates that must hold for --validate to pass: a bench that
# ran but failed its own acceptance check fails the pipeline even though
# its JSON is well-formed.
SELF_CHECKS = {
    "eval_throughput": lambda d: all(
        row.get("bit_identical") is True
        for row in d.get("results", []) + d.get("duplicate_rates", [])
    )
    and d.get("cache_ok") is True
    and d.get("robust_ok") is True
    # The SIMD lane path must be bit-exact against the scalar oracle on
    # every build and must have actually engaged (lane_groups > 0); the
    # >= 4x speedup itself is folded into simd_ok by the binary when the
    # run was gated (--simd-gate, the CI bench job on the default build).
    and d.get("simd_bit_identical") is True
    and d.get("simd_lane_groups", 0) > 0
    and d.get("simd_ok") is True
    # Sharded scale-out must reproduce the 1-shard bytes on every run; the
    # >= 2x speedup itself is folded into shard_ok by the binary when the
    # run was gated (--shard-gate, the CI bench job).
    and d.get("shard_bit_identical") is True
    and d.get("shard_ok") is True,
    "kernels": lambda d: d.get("sweep_ok") is True,
    "obs_overhead": lambda d: d.get("within_budget") is True
    and d.get("results_identical") is True,
}


def validate_one(path: Path, data: dict) -> list:
    """Returns a list of problem strings (empty = valid)."""
    problems = []
    for key in REQUIRED_COMMON:
        if key not in data:
            problems.append(f"{path.name}: missing required key '{key}'")
    bench = data.get("bench")
    for key in REQUIRED_BY_BENCH.get(bench, []):
        if key not in data:
            problems.append(f"{path.name}: missing required key '{key}'")
    check = SELF_CHECKS.get(bench)
    if check is not None and not problems and not check(data):
        problems.append(f"{path.name}: self-check failed (see its contents)")
    return problems


def headline(data: dict):
    """One scalar per bench for the summary table; None when unknown."""
    bench = data.get("bench")
    if bench == "eval_throughput":
        rows = data.get("results", [])
        best = max((r.get("evals_per_sec", 0.0) for r in rows), default=None)
        return "peak_evals_per_sec", best
    if bench == "kernels":
        return "sweep_speedup_at_512", data.get("sweep_speedup_at_512")
    if bench == "obs_overhead":
        return "gen_overhead_pct", data.get("gen_overhead_pct")
    return None, None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dir", default=".", help="directory with BENCH_*.json files")
    parser.add_argument("--out", default="", help="summary output path (default stdout)")
    parser.add_argument("--validate", action="store_true", help="fail on invalid input")
    args = parser.parse_args()

    bench_dir = Path(args.dir)
    paths = sorted(bench_dir.glob("BENCH_*.json"))
    if not paths:
        print(f"error: no BENCH_*.json files in {bench_dir}", file=sys.stderr)
        return 1

    problems = []
    entries = []
    for path in paths:
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as err:
            problems.append(f"{path.name}: unreadable ({err})")
            continue
        if not isinstance(data, dict):
            problems.append(f"{path.name}: top level is not a JSON object")
            continue
        problems.extend(validate_one(path, data))
        key, value = headline(data)
        entry = {
            "bench": data.get("bench", path.stem.removeprefix("BENCH_")),
            "file": path.name,
            "valid": not any(p.startswith(path.name) for p in problems),
        }
        if key is not None:
            entry["headline"] = {key: value}
        entries.append(entry)

    summary = {
        "schema": SUMMARY_SCHEMA,
        "bench_count": len(entries),
        "all_valid": not problems,
        "problems": problems,
        "benches": entries,
    }
    text = json.dumps(summary, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"summary written to {args.out}")
    else:
        sys.stdout.write(text)

    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    return 1 if (args.validate and problems) else 0


if __name__ == "__main__":
    sys.exit(main())
