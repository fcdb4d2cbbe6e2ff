#!/usr/bin/env python3
"""Repository benchmark: one command, three workloads, checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is train_functional, repro_timing or serve_fleet (BENCHMARK.json
says why each exists). The script builds the simulator library and the
measuring program from source into .bench_build/perfbench (CMake,
RelWithDebInfo; the first build takes about a minute on four cores),
runs the benchmark's arithmetic self-test, then one measurement. The
program's context and detail lines are passed through; the last line of
standard output is the result

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding every end-to-end metric (--trace 0) or every per-layer metric
(--trace 1) of BENCHMARK.json; per-layer metrics a workload does not
exercise read 0. A traced run also writes its host-clock spans as
Chrome-trace JSON to .bench_build/traces/. Any failed build, self-test,
output check or metric mismatch exits nonzero without a result line.
perfbench/LAYERS.md holds the seeds, metric definitions and layer map.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
TRACE_DIR = ROOT / ".bench_build" / "traces"
WORKLOADS = ("train_functional", "repro_timing", "serve_fleet")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not 1 <= args.seconds <= 600:
        p.error("--seconds must be in [1, 600]")
    return args


def run_quiet(cmd, timeout):
    """Run a build step with its output on stderr; fail on error."""
    try:
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=timeout, check=True)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        fail(f"{' '.join(map(str, cmd))} failed: {e}")


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources missing under {ROOT / 'src'}")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
              BUILD_TIMEOUT_S)
    run_quiet([str(BUILD_DIR / "perfbench_test")], 60)


def source_id():
    """The git commit when there is one, plus a digest of every source
    file the build reads (a checkout without .git still identifies)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    ident = "src-sha256:" + h.hexdigest()[:16]
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True)
            ident = "git:" + commit.stdout.strip() + " " + ident
        except (subprocess.SubprocessError, OSError):
            pass
    return ident


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def reconcile(line, trace):
    """The result line with exactly the metrics BENCHMARK.json declares
    for this mode, in its order. An untraced run must measure all of
    them; a traced run's per-layer metrics that the workload does not
    exercise read 0. Fails on anything undeclared or a unit mismatch."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        fail(f"last output line is not JSON: {e}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result has keys {sorted(result)}")
    if result["correct"] is not True:
        fail("output check failed")
    got = result["metrics"]
    declared = declared_metrics(trace)
    names = {m["name"] for m in declared}
    if set(got) - names:
        fail(f"undeclared metrics: {sorted(set(got) - names)}")
    metrics = {}
    for m in declared:
        measured = got.get(m["name"])
        if measured is None and not trace:
            fail(f"metric {m['name']} was not measured")
        if measured is not None and measured["unit"] != m["unit"]:
            fail(f"metric {m['name']} has unit {measured['unit']}, "
                 f"BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = measured or {"value": 0, "unit": m["unit"]}
    result["metrics"] = metrics
    return json.dumps(result)


def main():
    args = parse_args()
    build()
    cmd = [str(BUILD_DIR / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--source-id", source_id()]
    if args.trace:
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(TRACE_DIR / f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"measurement exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail(f"measurement exited with status {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    print(reconcile(lines[-1], args.trace), flush=True)


if __name__ == "__main__":
    main()
