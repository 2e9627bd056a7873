#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root.  The script configures perfbench/ as its own
CMake package (it compiles the upn library from ../src), builds it under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), and runs the
workload in a child process of its own, with one worker thread.  The last
line of standard output is one JSON object: correct, attempted, failed and
the metrics -- the end-to-end metrics with --trace 0, the per-layer ones
with --trace 1.  The exit code is non-zero when the sources are missing,
the build fails, a metric is missing, or any verified run failed.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"the upn sources are missing: {ROOT / 'src'}")
    out = build_dir()
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", target, "-j", "4"])
    for step in steps:
        # Build logs go to stderr: stdout ends with the result line.
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("building the benchmark failed: " + " ".join(step))
    return out / target


def expected_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, or None without it."""
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    declared = json.loads(spec.read_text())
    return [m["name"] for m in declared["per_layer" if trace else "end_to_end"]]


def workload_names():
    spec = ROOT / "BENCHMARK.json"
    if spec.is_file():
        return [w["name"] for w in json.loads(spec.read_text())["workloads"]]
    return ["online_butterfly", "paper_pipeline"]


def run_workload(binary, workload, seed, seconds, trace):
    """Runs one workload in its own process; returns (exit code, result)."""
    env = {k: v for k, v in os.environ.items() if k not in ("UPN_TRACE", "UPN_OBS")}
    env["UPN_THREADS"] = "1"
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    child = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        output, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        print(f"error: {workload} did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, None
    lines = output.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is None or sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        print(f"error: {workload} printed no result line", file=sys.stderr)
        return child.returncode or 1, None
    expected = expected_metrics(trace)
    if expected is not None and list(result["metrics"]) != expected:
        print(f"error: {workload} metrics differ from BENCHMARK.json: "
              f"{sorted(set(expected) ^ set(result['metrics']))}", file=sys.stderr)
        return 1, result
    return child.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; held-out {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=int, default=50, help="measuring window per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.self_test:
        test = build("perfbench_test")
        sys.exit(subprocess.run([str(test)], cwd=ROOT).returncode)
    if not args.workload:
        fail("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    names = workload_names()
    if args.workload != "all" and args.workload not in names:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(names)} or all")

    binary = build("upn_perfbench")
    if args.workload != "all":
        code, result = run_workload(binary, args.workload, args.seed, args.seconds,
                                    args.trace == 1)
        if result is not None:
            print(json.dumps(result))
        sys.exit(code)

    # Every workload in turn, then one combined line with prefixed names.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in names:
        print(f"=== {name}")
        code, result = run_workload(binary, name, args.seed, args.seconds, args.trace == 1)
        worst = worst or code
        if result is None:
            combined["correct"] = False
            continue
        print(json.dumps(result))
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    sys.exit(worst or (0 if combined["correct"] else 1))


if __name__ == "__main__":
    main()
