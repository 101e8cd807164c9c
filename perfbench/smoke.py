#!/usr/bin/env python3
"""Smoke test of the benchmark, run from the root of a source checkout.

    python3 perfbench/smoke.py

Runs every workload at a tiny size, untraced and traced, and checks that
each run passes its correctness checks and prints every end-to-end or
per-layer metric of BENCHMARK.json with its unit (end-to-end values must
be positive).  Then checks that the tracing wrapper leaves the final
kernel state of every TM identical to the unwrapped TM on a one-client
run.  Exits non-zero on the first failure.
"""
import json
import math
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORKLOADS = [w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]]


def fail(msg):
    print("smoke: FAIL: " + msg)
    sys.exit(1)


def main():
    for trace in (0, 1):
        want = run.expected_metrics(trace)
        for w in WORKLOADS:
            r = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", w,
                 "--seed", "1", "--seconds", "1", "--trace", str(trace),
                 "--tiny"], capture_output=True, text=True, timeout=170)
            if r.returncode != 0:
                fail("%s trace %d exited %d:\n%s" % (w, trace, r.returncode,
                                                     r.stderr[-3000:]))
            res = json.loads(r.stdout.strip().splitlines()[-1])
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                fail("%s: result keys %s" % (w, sorted(res)))
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                fail("%s trace %d: %s" % (w, trace, res))
            for name, unit in want.items():
                m = res["metrics"].get(name)
                if m is None or m["unit"] != unit:
                    fail("%s trace %d: metric %s missing or not in %s"
                         % (w, trace, name, unit))
                if not math.isfinite(m["value"]) or (
                        not trace and m["value"] <= 0):
                    fail("%s: %s = %r" % (w, name, m["value"]))
            print("smoke: %s trace %d ok (%d metrics)" % (w, trace, len(want)))
    r = subprocess.run([run.EXE, "--check-wrapper"], capture_output=True,
                       text=True, timeout=170)
    print(r.stdout, end="")
    if r.returncode != 0:
        fail("wrapped TMs end in another state than the plain ones")
    print("smoke: ok")


if __name__ == "__main__":
    main()
