#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark (ctest: qrank_e2e_smoke).

Usage: smoke.py QRANK_E2E QRANK_WORKER BENCHMARK_JSON WORK_DIR

Runs every workload once with --smoke (about a second per timed phase,
the same output verification) and --trace, and fails when
  * qrank_e2e exits with anything but 0, or 4 (a run marked invalid
    because the machine was busy, which a smoke test tolerates);
  * any workload's output verification failed;
  * the report lacks a metric BENCHMARK.json names, or a trace file;
  * a qrank_worker process outlives the run, or the run leaves its
    shard files behind.

Stdlib only.
"""

import json
import os
import shutil
import subprocess
import sys


def live_processes(binary):
    """Pids of running processes executing `binary`."""
    target = os.path.realpath(binary)
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            if os.path.realpath("/proc/%s/exe" % entry) == target:
                pids.append(int(entry))
        except OSError:
            continue  # exited meanwhile, or not ours to inspect
    return pids


def main(argv):
    if len(argv) != 5:
        print(__doc__, file=sys.stderr)
        return 2
    binary, worker, spec_path, work = argv[1:]
    with open(spec_path) as f:
        spec = json.load(f)
    if os.path.isdir(work):
        shutil.rmtree(work)
    trace = os.path.join(work, "trace")
    os.makedirs(trace)
    report = os.path.join(work, "BENCH_e2e.json")

    status = subprocess.run(
        [binary, "--workload=all", "--smoke", "--seed=1", "--trace=" + trace,
         "--json=" + report, "--work-dir=" + work]).returncode

    problems = []
    if status not in (0, 4):
        problems.append("qrank_e2e exited with status %d" % status)
    leaked = live_processes(worker)
    if leaked:
        problems.append("qrank_worker processes outlived the run: %s" % leaked)
    left = [e for e in os.listdir(work) if e.startswith("qrank_e2e_shards_")]
    if left:
        problems.append("shard directories left behind: %s" % left)
    if os.path.exists(report):
        with open(report) as f:
            results = {w["name"]: w for w in json.load(f)["workloads"]}
    else:
        results = {}
        problems.append("no report at %s" % report)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    for workload in [w["name"] for w in spec["workloads"]]:
        result = results.get(workload)
        if result is None:
            problems.append("%s: not run" % workload)
            continue
        if not result["correct"]:
            problems.append("%s: verification failed: %s" %
                            (workload, "; ".join(result["problems"])))
        missing = [n for n in names if n not in result["metrics"]]
        if missing:
            problems.append("%s: missing metrics %s" % (workload, missing))
        if not os.path.exists(os.path.join(trace, "trace_%s.json" % workload)):
            problems.append("%s: no trace file" % workload)

    for p in problems:
        print("qrank_e2e_smoke: FAIL: " + p, file=sys.stderr)
    if not problems:
        print("qrank_e2e_smoke: ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
