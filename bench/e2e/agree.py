#!/usr/bin/env python3
"""agree: do two sets of end-to-end benchmark runs agree within the bounds?

Usage, from the repository root:

    bench/e2e/agree.py --a A1.json A2.json ... --b B1.json B2.json ...
    bench/e2e/agree.py --runs N [--seed K]

The first form reads BENCH_e2e.json reports (each may hold several
workloads). The second runs N runs per set of every workload through
bench/e2e/run.py for run_seconds each, set A on seeds K+1..K+N and set
B on seeds K+N+1..K+2N, like two independent measurements of one
commit.

For every workload and end-to-end metric of BENCHMARK.json it prints
each set's median and quartiles (statistics.quantiles, n=4), the set's
spread (quartile distance over median), and the shift of B's median
from A's. Exits 1 when a shift, or a spread other than setup_s's,
exceeds the metric's bound, or a run fails; 2 on usage errors.

Stdlib only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def load_reports(paths):
    """{workload: {metric: [values]}} from BENCH_e2e.json files."""
    values = {}
    for path in paths:
        with open(path) as f:
            for w in json.load(f)["workloads"]:
                per_metric = values.setdefault(w["name"], {})
                for name, m in w["metrics"].items():
                    per_metric.setdefault(name, []).append(m["value"])
    return values


def run_set(workloads, seeds, seconds):
    """{workload: {metric: [values]}} from fresh runs of run.py."""
    values = {}
    for workload in workloads:
        for seed in seeds:
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, cwd=ROOT)
            if out.returncode != 0:
                raise RuntimeError("run.py %s seed %d exited %d" %
                                   (workload, seed, out.returncode))
            line = json.loads(out.stdout.strip().splitlines()[-1])
            for name, m in line["metrics"].items():
                values.setdefault(workload, {}).setdefault(name, []).append(
                    m["value"])
            print("  ran %s seed %d" % (workload, seed), file=sys.stderr)
    return values


def summary(vals):
    """(median, q1, q3, spread); spread is (q3 - q1) / median."""
    med = statistics.median(vals)
    if len(vals) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--a", nargs="+", metavar="JSON", help="set A reports")
    ap.add_argument("--b", nargs="+", metavar="JSON", help="set B reports")
    ap.add_argument("--runs", type=int, help="runs per set (run mode)")
    ap.add_argument("--seed", type=int, default=0, help="seed base (run mode)")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.runs:
        workloads = [w["name"] for w in spec["workloads"]]
        seconds = spec["run_seconds"]
        n = args.runs
        try:
            a = run_set(workloads, range(args.seed + 1, args.seed + n + 1),
                        seconds)
            b = run_set(workloads,
                        range(args.seed + n + 1, args.seed + 2 * n + 1),
                        seconds)
        except RuntimeError as e:
            print("agree: %s" % e, file=sys.stderr)
            return 1
    elif args.a and args.b:
        a, b = load_reports(args.a), load_reports(args.b)
    else:
        ap.print_usage(sys.stderr)
        return 2

    failures = 0
    print("%-14s %-14s %-5s %12s %12s %12s %7s %7s %6s" %
          ("workload", "metric", "set", "median", "q1", "q3", "spread",
           "shift", "bound"))
    for workload in sorted(set(a) & set(b)):
        for m in spec["end_to_end"]:
            va = a[workload].get(m["name"])
            vb = b[workload].get(m["name"])
            if not va or not vb:
                print("%-14s %-14s missing" % (workload, m["name"]))
                failures += 1
                continue
            ma, q1a, q3a, sa = summary(va)
            mb, q1b, q3b, sb = summary(vb)
            shift = mb / ma - 1.0 if ma else float("inf")
            bad = abs(shift) > m["bound"]
            if m["name"] != "setup_s":
                bad = bad or sa > m["bound"] or sb > m["bound"]
            failures += bad
            print("%-14s %-14s %-5s %12.5g %12.5g %12.5g %7.3f" %
                  (workload, m["name"], "A", ma, q1a, q3a, sa))
            print("%-14s %-14s %-5s %12.5g %12.5g %12.5g %7.3f %+7.3f %6.2f%s" %
                  ("", "", "B", mb, q1b, q3b, sb, shift, m["bound"],
                   "  DISAGREE" if bad else ""))
    print("%d disagreement(s)" % failures)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
