#!/usr/bin/env python3
"""Compares two sets of e2e_run reports, or validates reports.

    compare.py --base P1.json P2.json ... --change C1.json C2.json ...
               [--benchmark BENCHMARK.json]
    compare.py --validate FILE... [--benchmark BENCHMARK.json]

Each report is one BENCH_e2e.json (or BENCH_e2e_traced.json) written by
e2e_run; a set holds the runs of one commit, paired by position with the
other set's runs (run them alternately). For every (workload, metric) the
comparison prints each side's median and quartiles and the share of pairs
the change wins, then a verdict by the rule of the choosing-metrics guide:

  improved    the change wins at least 9 in 10 pairs and the medians differ
              by more than the base runs' own quartile spread;
  unresolved  the base runs spread wider than the metric's bound (and the
              change did not beat every base run);
  regressed   the change median is worse than the base median by more than
              the bound;
  unchanged   otherwise.

Bounds come from BENCHMARK.json (end_to_end). `hv` and `fail_frac` are
exact: any difference is a verdict. Metrics without a bound are listed with
"-". The exit status is 1 when any metric regressed or a report is invalid.
Standard library only.
"""

import argparse
import json
import math
import re
import statistics
import sys
from pathlib import Path

SCHEMA = "anadex-bench-e2e/v1"
EXACT = ("hv", "fail_frac")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
BENCHMARK_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}


def load(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def validate_report(report, where):
    """Returns the schema errors of one e2e_run report."""
    errors = []

    def need(cond, what):
        if not cond:
            errors.append(f"{where}: {what}")

    need(report.get("schema") == SCHEMA, f"schema is not {SCHEMA}")
    need(report.get("mode") in ("timed", "traced"), "mode is not timed|traced")
    need(isinstance(report.get("correct"), bool), "correct is not a bool")
    machine = report.get("machine", {})
    for key in ("nproc", "cpu_model", "avx2", "avx512f", "compiler", "build_type",
                "cxx_flags"):
        need(key in machine, f"machine lacks {key}")
    for check in report.get("checks", []):
        need(isinstance(check.get("ok"), bool) and "name" in check, "malformed check")
    workloads = report.get("workloads")
    need(isinstance(workloads, dict) and workloads, "no workloads")
    for name, entry in (workloads or {}).items():
        need(isinstance(entry.get("attempted"), (int, float)) and entry["attempted"] >= 1,
             f"{name}: attempted < 1")
        need(isinstance(entry.get("failed"), (int, float)), f"{name}: failed missing")
        need("runs" in entry, f"{name}: raw runs missing")
        for metric, m in entry.get("metrics", {}).items():
            need(NAME_RE.match(metric) is not None, f"{name}: bad metric name {metric}")
            need(isinstance(m.get("value"), (int, float)) and math.isfinite(m["value"]),
                 f"{name}.{metric}: value is not a finite number")
            need(UNIT_RE.match(str(m.get("unit", ""))) is not None,
                 f"{name}.{metric}: bad unit")
            need(m.get("better") in ("lower", "higher"), f"{name}.{metric}: bad direction")
    return errors


def validate_benchmark(spec, where):
    """Returns the structural errors of BENCHMARK.json."""
    errors = []

    def need(cond, what):
        if not cond:
            errors.append(f"{where}: {what}")

    need(set(spec) == BENCHMARK_KEYS, f"keys must be exactly {sorted(BENCHMARK_KEYS)}")
    need(1 <= len(spec.get("paths", [])) <= 16, "1 to 16 paths")
    need(isinstance(spec.get("run_seconds"), int) and 1 <= spec["run_seconds"] <= 60,
         "run_seconds must be a whole number in 1..60")
    need(2 <= len(spec.get("workloads", [])) <= 8, "2 to 8 workloads")
    need(1 <= len(spec.get("end_to_end", [])) <= 16, "1 to 16 end_to_end metrics")
    need(1 <= len(spec.get("per_layer", [])) <= 128, "1 to 128 per_layer metrics")
    metrics = spec.get("end_to_end", []) + spec.get("per_layer", [])
    names = [w.get("name", "") for w in spec.get("workloads", [])]
    names += [m.get("name", "") for m in metrics]
    need(all(NAME_RE.match(n) for n in names), "a name breaks the naming rule")
    need(len(names) == len(set(names)), "a name is used twice")
    for w in spec.get("workloads", []):
        need(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"],
             f"workload {w.get('name')}: needs exactly name and a one-line why")
    for m in spec.get("end_to_end", []):
        need(set(m) == {"name", "unit", "better", "bound"}, f"{m.get('name')}: keys")
        need(0 < m.get("bound", 0) <= 0.25, f"{m.get('name')}: bound must be in (0, 0.25]")
    for m in metrics:
        need(UNIT_RE.match(str(m.get("unit", ""))) is not None, f"{m.get('name')}: bad unit")
        need(m.get("better") in ("lower", "higher"), f"{m.get('name')}: bad direction")
    for m in spec.get("per_layer", []):
        need(set(m) == {"name", "unit", "better"}, f"{m.get('name')}: keys")
    setup = [m for m in spec.get("end_to_end", []) if m.get("name") == "setup_s"]
    need(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
         "setup_s (s, lower) must be an end_to_end metric")
    if setup:
        need(setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
             "setup_s must carry the largest bound")
    return errors


def cross_check(spec, report, where):
    """Every BENCHMARK.json metric of the report's mode, on every workload."""
    errors = []
    listed = spec["per_layer"] if report.get("mode") == "traced" else spec["end_to_end"]
    for w in spec["workloads"]:
        entry = report.get("workloads", {}).get(w["name"])
        if entry is None:
            continue  # a report may cover a subset of the workloads
        for m in listed:
            got = entry.get("metrics", {}).get(m["name"])
            if got is None:
                errors.append(f"{where}: {w['name']} lacks {m['name']}")
            elif got["unit"] != m["unit"] or got["better"] != m["better"]:
                errors.append(f"{where}: {w['name']}.{m['name']} unit/direction differ "
                              "from BENCHMARK.json")
    return errors


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(base, change, better, bound):
    """Returns (verdict, win_rate) for one (workload, metric)."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    win_rate = wins / len(pairs) if pairs else 0.0
    b_med = statistics.median(base)
    c_med = statistics.median(change)
    if bound is None:
        return "-", win_rate
    if bound == 0.0:
        if c_med == b_med:
            return "unchanged", win_rate
        return ("improved" if sign * (c_med - b_med) > 0 else "regressed"), win_rate
    q1, q3 = quartiles(base)
    scale = abs(b_med) if b_med != 0 else 1.0
    spread = (q3 - q1) / scale
    all_better = all(sign * (c - b) > 0 for c in change for b in base)
    if win_rate >= 0.9 and sign * (c_med - b_med) > (q3 - q1):
        return "improved", win_rate
    if spread > bound and not all_better:
        return "unresolved", win_rate
    if -sign * (c_med - b_med) / scale > bound:
        return "regressed", win_rate
    return "unchanged", win_rate


def compare(spec, base_reports, change_reports):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]} if spec else {}
    bounds.update({name: 0.0 for name in EXACT})
    workloads = sorted({w for r in base_reports + change_reports for w in r["workloads"]})
    regressed = False
    print(f"{'workload':<15} {'metric':<28} {'base median [q1, q3]':<36} "
          f"{'change median [q1, q3]':<36} {'win':>5}  verdict")
    for w in workloads:
        names = []
        for r in base_reports + change_reports:
            for name in r["workloads"].get(w, {}).get("metrics", {}):
                if name not in names:
                    names.append(name)
        for name in names:
            def values(reports):
                return [r["workloads"][w]["metrics"][name]["value"] for r in reports
                        if name in r["workloads"].get(w, {}).get("metrics", {})]
            base, change = values(base_reports), values(change_reports)
            if not base or not change:
                continue
            meta = next(r["workloads"][w]["metrics"][name] for r in base_reports
                        if name in r["workloads"].get(w, {}).get("metrics", {}))
            v, win = verdict(base, change, meta["better"], bounds.get(name))
            regressed = regressed or v == "regressed"

            def cell(vals):
                q1, q3 = quartiles(vals)
                return f"{statistics.median(vals):.6g} [{q1:.6g}, {q3:.6g}] {meta['unit']}"
            print(f"{w:<15} {name:<28} {cell(base):<36} {cell(change):<36} "
                  f"{win:>5.2f}  {v}")
    return regressed


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", default=[])
    parser.add_argument("--change", nargs="+", default=[])
    parser.add_argument("--validate", nargs="+", default=[])
    parser.add_argument("--benchmark", help="BENCHMARK.json with bounds and metric lists")
    args = parser.parse_args()

    spec = load(args.benchmark) if args.benchmark else None
    errors = validate_benchmark(spec, args.benchmark) if spec else []
    files = args.validate or (args.base + args.change)
    if not files:
        parser.error("give --validate FILE... or --base ... --change ...")
    reports = {}
    for path in files:
        try:
            reports[path] = load(path)
        except (OSError, ValueError) as err:
            errors.append(f"{path}: {err}")
            continue
        errors += validate_report(reports[path], path)
        if spec:
            errors += cross_check(spec, reports[path], path)
    for e in errors:
        print("invalid:", e, file=sys.stderr)
    if errors:
        return 1
    if args.validate:
        print(f"valid: {len(files)} report(s)" + (" and BENCHMARK.json" if spec else ""))
        return 0
    if not args.base or not args.change:
        parser.error("--base and --change each need at least one report")
    if min(len(args.base), len(args.change)) < 10:
        print("note: fewer than 10 runs per side; the verdicts are indicative only",
              file=sys.stderr)
    regressed = compare(spec, [reports[p] for p in args.base],
                        [reports[p] for p in args.change])
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
