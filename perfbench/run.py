#!/usr/bin/env python3
"""Build and run the MSCCLang end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Builds perfbench/ (and the library sources it compiles) in Release mode
under .bench_build/, runs one workload, and prints the benchmark's
report followed by one JSON line holding the end-to-end metrics named
in BENCHMARK.json (--trace 0) or its per-layer metrics (--trace 1).
The full result, with every metric, sample counts, host_cpus and the
build type, is also written to .bench_build/results/.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")


def build(target):
    """Configures (once) and builds @target; returns the binary path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", target],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(BUILD_DIR, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    try:
        if args.self_test:
            return subprocess.run([build("perfbench_selftest")]).returncode
        if not args.workload:
            parser.error("--workload is required")
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        binary = build("perfbench")
    except (OSError, subprocess.CalledProcessError, ValueError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    os.makedirs(os.path.join(BUILD_DIR, "results"), exist_ok=True)
    stem = os.path.join(BUILD_DIR, "results",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        cmd += ["--spans", stem + ".spans.json"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        full = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        print(f"perfbench: no result (exit {proc.returncode})",
              file=sys.stderr)
        return proc.returncode or 2
    for line in lines[:-1]:
        print(line)
    with open(stem + ".json", "w") as f:
        json.dump(full, f, indent=1)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = full["metrics"].get(m["name"])
        if got is None:
            print(f"perfbench: workload {args.workload} did not report "
                  f"{m['name']}", file=sys.stderr)
            return 3
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": full["correct"],
                      "attempted": full["attempted"],
                      "failed": full["failed"],
                      "metrics": metrics}))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
