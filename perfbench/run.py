#!/usr/bin/env python3
"""Builds the decoder-farm benchmark from source and runs one workload.

    python3 perfbench/run.py --workload mix_saturated --seed 1 \
        --seconds 10 --trace 0

Run it from the repository root. The first run configures and builds
perfbench/ (which pulls in the repository's own CMake build) into the
directory named by CARGO_TARGET_DIR, default .bench_build; later runs
only rebuild what changed. Build output goes to stderr, so the last line
of stdout is the benchmark's JSON result. A traced run (--trace 1) also
writes Chrome trace-event JSON to <build dir>/trace_<workload>_<seed>.json.

Exit status: the benchmark's own (0 = every job verified, 1 = a
mismatch or an invalid run, after printing the result); 1 without a
result when the build fails or the run times out; 2 on a usage error.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("mix_saturated", "mix_paced", "harq_closed_loop")
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.abspath(path)


def build(out_dir):
    """Configures once, then builds the farm_bench target incrementally."""
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "farm_bench",
                  "-j", "3"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("run.py: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return None
    exe = os.path.join(out_dir, "farm_bench")
    return exe if os.path.exists(exe) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args, extra = parser.parse_known_args()

    out_dir = build_dir()
    exe = build(out_dir)
    if exe is None:
        return 1
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            out_dir, "trace_%s_%d.json" % (args.workload, args.seed))]
    cmd += extra  # --inject-mismatch / --pool / --setup-reps, for smoke runs
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        sys.stderr.write(proc.stdout)
        print("run.py: the benchmark printed no result", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
