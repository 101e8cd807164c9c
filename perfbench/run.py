#!/usr/bin/env python3
"""Build and run the TM-stack benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1 [--tiny]

Workloads: read-mostly, update-fenced, record-check, figure-trials (see
BENCHMARK.json for why each exists and perfbench/PREDICTIONS.md for which
per-layer metric should move which end-to-end metric).

The program is built with dune into .bench_build/ and run once.  Its
stdout is passed through; the last line is one JSON object with the keys
correct, attempted, failed and metrics.  --trace 0 gives the end-to-end
metrics (this script adds peak_rss_mb, the benchmark process's resident
high-water mark); --trace 1 gives the per-layer metrics and writes the
sampled spans to .bench_build/spans-<workload>.json (Chrome trace format).  The exit
code is 0 only when every correctness check passed.
"""
import argparse
import json
import os
import subprocess
import sys
import threading

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def local_env():
    """The environment for dune and the benchmark: no shared dune cache,
    and temporary and cache files under the build directory."""
    tmp = os.path.abspath(os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp,
                XDG_CACHE_HOME=tmp)


def build():
    """Build the benchmark program; exits non-zero outside a checkout."""
    for need in ("dune-project", "lib", "perfbench/dune"):
        if not os.path.exists(need):
            die("%s not found: run from the root of a source checkout" % need)
    env = local_env()
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/bench.exe"]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, env=env, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if r.returncode != 0:
        die("build failed (dune exit %d)" % r.returncode)


def git_rev():
    if not os.path.isdir(".git"):
        return "unknown"
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=10)
        return r.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def run_exe(args):
    """Run bench.exe; return (exit code, stdout lines, peak RSS in MB)."""
    p = subprocess.Popen([EXE] + args, stdout=subprocess.PIPE, text=True,
                         env=local_env())
    timer = threading.Timer(RUN_TIMEOUT_S, p.kill)
    timer.start()
    try:
        out = p.stdout.read()
        p.stdout.close()
        _, status, usage = os.wait4(p.pid, 0)
    finally:
        timer.cancel()
    p.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux
    return p.returncode, out.splitlines(), usage.ru_maxrss / 1024.0


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs (smoke test)")
    a = ap.parse_args()
    build()
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.tiny:
        args.append("--tiny")
    if a.trace:
        args += ["--spans", os.path.join(
            BUILD_DIR, "spans-%s.json" % a.workload)]
    code, lines, rss_mb = run_exe(args)
    if not lines:
        die("benchmark printed nothing (exit %d)" % code)
    for line in lines[:-1]:
        if line.startswith("meta "):
            meta = json.loads(line[5:])
            meta["git_rev"] = git_rev()
            line = "meta " + json.dumps(meta)
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        die("last line is not a result: %r (exit %d)" % (lines[-1], code))
    metrics = result["metrics"]
    if not a.trace:
        metrics["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
        print("metric peak_rss_mb %.6g MB" % rss_mb)
    want = expected_metrics(a.trace)
    got = {k: v["unit"] for k, v in metrics.items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        print("perfbench: metrics differ from BENCHMARK.json: missing %s, "
              "extra %s" % (missing, extra), file=sys.stderr)
        result["correct"] = False
    print(json.dumps(result), flush=True)
    if code != 0 or not result["correct"]:
        sys.exit(code or 1)


if __name__ == "__main__":
    main()
