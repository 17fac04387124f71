#!/usr/bin/env python3
"""Entry point of the qrank end-to-end benchmark (BENCHMARK.json's command).

Usage, from the repository root:

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures and builds bench/e2e (CMake, Release) into .bench_build/e2e,
runs one workload of qrank_e2e, and prints as the last line of standard
output one JSON object,

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding every end_to_end metric of BENCHMARK.json (--trace 0) or every
per_layer metric (--trace 1). The benchmark's own report goes to standard
error. A run the benchmark marks invalid (a disturbed host, exit status
4) is repeated while the time budget allows; exits non-zero, without
the JSON line, when the build fails, the run fails, or no valid run fits.

Stdlib only.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "e2e")
BINARY = os.path.join(BUILD, "qrank_e2e")
INVALID = 4
# Whole-invocation budget; the caller allows 180 s per run.
BUDGET_S = 170.0


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "qrank_e2e",
                    "-j", jobs], check=True, stdout=sys.stderr)


def run_once(args, work, timeout):
    """Runs qrank_e2e once; returns (exit status, parsed report or None)."""
    if os.path.isdir(work):
        shutil.rmtree(work)
    os.makedirs(work)
    report = os.path.join(work, "BENCH_e2e.json")
    cmd = [BINARY, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%s" % args.seconds, "--json=" + report,
           "--work-dir=" + work]
    if args.trace:
        os.makedirs(os.path.join(work, "trace"))
        cmd.append("--trace=" + os.path.join(work, "trace"))
    # A session of its own, so a timeout can stop the benchmark and the
    # worker processes it spawned together.
    proc = subprocess.Popen(cmd, stdout=sys.stderr, start_new_session=True)
    try:
        status = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log("run.py: qrank_e2e exceeded %.0f s" % timeout)
        return None, None
    if not os.path.exists(report):
        return status, None
    with open(report) as f:
        return status, json.load(f)["workloads"][0]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("run.py: unknown workload %r" % args.workload)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    start = time.monotonic()
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("run.py: build failed: %s" % e)
        return 1

    work = os.path.join(BUILD, "run")
    result = None
    while True:
        left = BUDGET_S - (time.monotonic() - start)
        attempt_start = time.monotonic()
        status, result = run_once(args, work, left)
        if status != INVALID:
            break
        took = time.monotonic() - attempt_start
        if time.monotonic() - start + took > BUDGET_S:
            log("run.py: run invalid and no time left to repeat it")
            return INVALID
        log("run.py: run invalid (disturbed host); repeating it")
    if result is None:
        log("run.py: qrank_e2e failed (exit status %s)" % status)
        return 1

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is not None and got["unit"] == m["unit"]:
            metrics[m["name"]] = got
        elif result["correct"]:
            log("run.py: qrank_e2e did not report %s in %s" %
                (m["name"], m["unit"]))
            return 1
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0 if status == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
