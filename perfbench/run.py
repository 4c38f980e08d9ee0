#!/usr/bin/env python3
"""Build and run the perfbench benchmark; see perfbench/METRICS.md.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The first run configures and builds the
library sources and the benchmark into .bench_build/perfbench (later runs
rebuild only what changed). The benchmark's own report goes to stdout; the
last line is one JSON object with exactly the keys correct, attempted,
failed and metrics, where metrics holds the end-to-end set of
BENCHMARK.json (--trace 0) or its per-layer set (--trace 1).

Exit status: 0 on a correct run, 1 when an op failed or read wrong data,
2 when the build fails, 3 when the output does not match BENCHMARK.json,
4 on a timeout.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170


def fail(code, message):
    print(message, file=sys.stderr)
    sys.exit(code)


def build():
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "perfbench-build.log")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                # A failed configure must not be mistaken for a finished one.
                if step is steps[0] and len(steps) == 2:
                    shutil.rmtree(BUILD_DIR, ignore_errors=True)
                with open(log_path) as f:
                    tail = f.read().splitlines()[-30:]
                fail(2, "build failed:\n" + "\n".join(tail))


def run_binary(args):
    """Runs the benchmark binary; returns (exit code, stdout lines, result)."""
    try:
        proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(4, "benchmark timed out after %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, lines, result


def select_metrics(result, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        got = result["metrics"].get(entry["name"])
        if got is None:
            fail(3, "metric %s missing from the benchmark output" % entry["name"])
        if got["unit"] != entry["unit"]:
            fail(3, "metric %s has unit %s, BENCHMARK.json says %s"
                 % (entry["name"], got["unit"], entry["unit"]))
        metrics[entry["name"]] = {"value": got["value"], "unit": got["unit"]}
    extra = set(result["metrics"]) - set(metrics)
    if extra:
        fail(3, "metrics not in BENCHMARK.json: %s" % ", ".join(sorted(extra)))
    return metrics


def self_test():
    """Checks the span arithmetic and that the seed alone fixes the inputs."""
    ok = True
    code, lines, _ = run_binary(["--self-test-spans"])
    print("\n".join(lines))
    ok &= code == 0
    for workload in ("randread_lfu", "ycsb_a_lsm"):
        runs = []
        for seed in (7, 7, 8):
            code, _, result = run_binary(
                ["--workload", workload, "--seed", str(seed), "--ops", "60000",
                 "--trace", "0"])
            if code != 0 or result is None or not result["correct"]:
                print("%s seed %d: run failed" % (workload, seed))
                ok = False
                break
            runs.append(result)
        if len(runs) < 3:
            continue
        same_counts = runs[0]["counts"] == runs[1]["counts"]
        same_stream = runs[0]["op_digest"] == runs[1]["op_digest"]
        new_stream = runs[0]["op_digest"] != runs[2]["op_digest"]
        print("%s: same seed -> identical counts %s, identical op stream %s; "
              "other seed -> different op stream %s"
              % (workload, same_counts, same_stream, new_stream))
        if not same_counts:
            for name, value in runs[0]["counts"].items():
                other = runs[1]["counts"][name]
                if value != other:
                    print("  %s: %r vs %r" % (name, value["value"], other["value"]))
        ok &= same_counts and same_stream and new_stream
    print("self-test %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    build()
    if args.self_test:
        sys.exit(self_test())

    bench_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        bench_args += ["--spans-out",
                       os.path.join(BUILD_ROOT, "spans-%s.tsv" % args.workload)]
    code, lines, result = run_binary(bench_args)
    if result is None:
        fail(code or 1, "benchmark produced no result (exit %d)" % code)
    print("\n".join(lines[:-1]))
    metrics = select_metrics(result, args.trace)
    print(json.dumps({"correct": bool(result["correct"]) and code == 0,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    sys.exit(0 if result["correct"] and code == 0 else 1)


if __name__ == "__main__":
    main()
