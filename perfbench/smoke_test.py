#!/usr/bin/env python3
"""Smoke test of the decoder-farm benchmark at a small size (~2 minutes).

    python3 perfbench/smoke_test.py

Run it from the repository root; it builds through run.py like a real
run. For every workload of BENCHMARK.json it checks that

  * --trace 0 prints exactly the end_to_end metrics, each with its
    declared unit, and reports every job verified (correct, 0 failed);
  * --trace 1 prints exactly the per_layer metrics, each with its unit;

and, on one mix and one closed-loop workload, that a reference entry
corrupted on purpose (--inject-mismatch) comes back as failed operations,
correct = false and a non-zero exit status. Exits 1 on the first failed
check.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SMALL = ["--pool", "256", "--setup-reps", "2"]


def run(workload, trace, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd + SMALL + list(extra), cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.stderr.write(proc.stderr)
        fail("%s --trace %d printed no result" % (workload, trace))
    return proc.returncode, json.loads(lines[-1])


def fail(why):
    print("SMOKE FAIL: " + why)
    sys.exit(1)


def check_metrics(workload, trace, result, declared):
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    if set(got) != set(want):
        fail("%s --trace %d metrics differ: missing %s, extra %s" %
             (workload, trace, sorted(set(want) - set(got)),
              sorted(set(got) - set(want))))
    for name, unit in want.items():
        if got[name]["unit"] != unit:
            fail("%s: %s has unit %r, declared %r" %
                 (workload, name, got[name]["unit"], unit))
        if not isinstance(got[name]["value"], (int, float)):
            fail("%s: %s has no numeric value" % (workload, name))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        name = w["name"]
        for trace, declared in ((0, bench["end_to_end"]),
                                (1, bench["per_layer"])):
            code, result = run(name, trace)
            check_metrics(name, trace, result, declared)
            if code != 0 or not result["correct"] or result["failed"]:
                fail("%s --trace %d: exit %d, %d of %d failed" %
                     (name, trace, code, result["failed"],
                      result["attempted"]))
            print("ok   %-20s --trace %d  %d jobs verified" %
                  (name, trace, result["attempted"]))

    for name in ("mix_saturated", "harq_closed_loop"):
        code, result = run(name, 0, ["--inject-mismatch", "3"])
        if code == 0 or result["correct"] or result["failed"] < 3:
            fail("%s: an injected mismatch was not reported (exit %d, "
                 "correct %s, failed %d)" %
                 (name, code, result["correct"], result["failed"]))
        print("ok   %-20s injected mismatch -> %d failed, exit %d" %
              (name, result["failed"], code))
    print("smoke test passed")


if __name__ == "__main__":
    main()
