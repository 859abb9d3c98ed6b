#!/usr/bin/env python3
"""Steadiness check for the composed-stack benchmark.

Runs every chosen workload N times, interleaved (run i of each workload
before run i+1 of any), with seed i in round i, and prints per metric
the median, the quartiles, min/max and the spread (q3 - q1) / median. An
end-to-end metric whose spread exceeds its bound in BENCHMARK.json is
flagged, as is one above a third of it (the target for a steady
benchmark).

    python3 stackbench/steady.py --runs 10 --seconds 20
    python3 stackbench/steady.py --runs 5 --workloads serve_fleet --out a.json
    python3 stackbench/steady.py --compare a.json b.json

--compare reads two saved sets and flags every metric whose second
median is worse than the first by more than its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit("%s seed %d failed (exit %d)" %
                         (workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit("%s seed %d: incorrect result" % (workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / abs(med) if med else float("inf")
    return med, q1, q3, min(values), max(values), spread


def report(sets, bounds):
    """Prints the table; returns the number of metrics over their bound."""
    over = 0
    for workload, per_metric in sets.items():
        print("== %s (%d runs)" % (workload, len(next(iter(per_metric.values())))))
        print("  %-28s %14s %14s %14s %8s %8s" %
              ("metric", "median", "q1", "q3", "max/min", "spread"))
        for name, values in per_metric.items():
            med, q1, q3, lo, hi, spread = summarize(values)
            ratio = hi / lo if lo else float("inf")
            flag = ""
            if name in bounds:
                if spread > bounds[name]:
                    flag = "  OVER BOUND %.3f" % bounds[name]
                    over += 1
                elif spread > bounds[name] / 3:
                    flag = "  above bound/3"
            print("  %-28s %14.6g %14.6g %14.6g %8.3f %8.4f%s" %
                  (name, med, q1, q3, ratio, spread, flag))
    return over


def compare(a, b, spec):
    worse = 0
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in a:
        for name, bound in bounds.items():
            ma = statistics.median(a[workload][name])
            mb = statistics.median(b[workload][name])
            change = (mb - ma) / abs(ma) if ma else 0.0
            bad = change > bound if lower[name] else -change > bound
            worse += bad
            print("%-18s %-14s %14.6g -> %14.6g  %+7.2f%%%s" %
                  (workload, name, ma, mb, 100 * change,
                   "  WORSE THAN BOUND" if bad else ""))
    return worse


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seconds", type=int, default=0,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--out", help="save raw values as JSON")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    spec = load_spec()

    if args.compare:
        with open(args.compare[0]) as f:
            a = json.load(f)
        with open(args.compare[1]) as f:
            b = json.load(f)
        return 1 if compare(a, b, spec) else 0

    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    sets = {w: {} for w in workloads}
    for i in range(args.runs):
        seed = i + 1
        for w in workloads:
            for name, value in run_once(w, seed, seconds).items():
                sets[w].setdefault(name, []).append(value)
            sys.stderr.write("round %d/%d %s done\n" % (i + 1, args.runs, w))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(sets, f, indent=1)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    return 1 if report(sets, bounds) else 0


if __name__ == "__main__":
    sys.exit(main())
