#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

    python3 bench/e2e/run.py --workload NAME [--seed N] [--seconds T] [--trace 0|1]

Run it from the repository root. The repository is built with its own
CMakeLists.txt (Release, target `anadex`) into .bench_build/anadex, and
bench/e2e/CMakeLists.txt builds e2e_run against it into .bench_build/e2e;
both builds are incremental after the first run. e2e_run then runs the
workload for about T seconds (--trace 0) or once with the layer recorders
(--trace 1), checking its own outputs.

The last line of standard output is one JSON object: whether every check
passed, the operations attempted and failed, and every metric BENCHMARK.json
lists for the mode (end_to_end for --trace 0, per_layer for --trace 1), each
with its unit. The exit status is 0 only when the run completed and every
check passed; when the run or the build cannot complete, no result line is
printed. Standard library only.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, log, timeout):
    """Runs `cmd`, appending its output to `log`; fails with the log tail."""
    with open(log, "a", encoding="utf-8") as out:
        out.write("$ " + " ".join(str(c) for c in cmd) + "\n")
        out.flush()
        try:
            proc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                  timeout=timeout, check=False)
        except subprocess.TimeoutExpired:
            fail(f"timed out after {timeout} s: {' '.join(map(str, cmd))}")
    if proc.returncode != 0:
        tail = Path(log).read_text(encoding="utf-8", errors="replace")[-4000:]
        fail(f"command failed ({proc.returncode}): {' '.join(map(str, cmd))}\n{tail}")


def build(root, build_dir):
    """Configures (first run only) and builds the repository and e2e_run."""
    repo_build = build_dir / "anadex"
    e2e_build = build_dir / "e2e"
    log = build_dir / "build.log"
    jobs = str(os.cpu_count() or 1)
    build_dir.mkdir(parents=True, exist_ok=True)
    if not (repo_build / "CMakeCache.txt").exists():
        run_logged(["cmake", "-S", root, "-B", repo_build, "-DCMAKE_BUILD_TYPE=Release"],
                   log, BUILD_TIMEOUT_S)
    run_logged(["cmake", "--build", repo_build, "--target", "anadex", "-j", jobs],
               log, BUILD_TIMEOUT_S)
    if not (e2e_build / "CMakeCache.txt").exists():
        run_logged(["cmake", "-S", root / "bench" / "e2e", "-B", e2e_build,
                    "-DCMAKE_BUILD_TYPE=Release", f"-DANADEX_BUILD_DIR={repo_build}"],
                   log, BUILD_TIMEOUT_S)
    run_logged(["cmake", "--build", e2e_build, "-j", jobs], log, BUILD_TIMEOUT_S)
    return e2e_build / "e2e_run"


def run_workload(binary, args, out_dir):
    """Runs e2e_run in its own process group, forwarding its output."""
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--out", str(out_dir)]
    if args.trace:
        cmd.append("--traced")
    else:
        cmd += ["--seconds", str(args.seconds)]
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"e2e_run did not finish within {RUN_TIMEOUT_S} s")
    finally:
        # Also reaps shard workers and other children left in the group.
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    needed = [root / "CMakeLists.txt", root / "src", root / "apps",
              root / "bench" / "e2e" / "CMakeLists.txt", root / "BENCHMARK.json"]
    missing = [str(p.relative_to(root)) for p in needed if not p.exists()]
    if missing:
        fail("run from the repository root; missing " + ", ".join(missing), 2)
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload '{args.workload}'", 2)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build_dir = root / ".bench_build"
    binary = build(root, build_dir)
    out_dir = build_dir / "runs" / f"{args.workload}.{args.seed}.{args.trace}.{os.getpid()}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    try:
        code = run_workload(binary, args, out_dir)
        name = "BENCH_e2e_traced.json" if args.trace else "BENCH_e2e.json"
        try:
            report = json.loads((out_dir / name).read_text(encoding="utf-8"))
        except (OSError, ValueError) as err:
            fail(f"e2e_run (exit {code}) left no readable {name}: {err}")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    entry = report["workloads"].get(args.workload)
    if entry is None:
        fail(f"e2e_run (exit {code}) reported nothing for {args.workload}")
    metrics = {}
    for m in wanted:
        got = entry["metrics"].get(m["name"])
        if got is None or got["value"] is None:
            fail(f"e2e_run reported no {m['name']} for {args.workload}")
        if got["unit"] != m["unit"]:
            fail(f"{m['name']}: e2e_run unit {got['unit']} != BENCHMARK.json {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    correct = code == 0 and report.get("correct") is True
    print(json.dumps({"correct": correct,
                      "attempted": int(entry["attempted"]),
                      "failed": int(entry["failed"]),
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
