#!/usr/bin/env python3
"""Build and run the composed-stack benchmark for one workload.

    python3 stackbench/run.py --workload serve_gpu --seed 1 --seconds 20 --trace 0

Run from the repository root. The first call configures and builds
stackbench/ (and the src/ libraries it links) under .bench_build/stackbench;
later calls rebuild only what changed. The last line of standard output is
the result object: {"correct", "attempted", "failed", "metrics"}. With
--trace 1 the metrics are the per-layer ones and the recorded spans are
written to .bench_build/stackbench/spans_<workload>.json.

--smoke shrinks every run to a few thousand arrivals for quick checks.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "stackbench")
BINARY = os.path.join(BUILD, "stack_e2e")
RUN_TIMEOUT_S = 170


def git_rev():
    """Revision of the checkout being measured, with '-dirty' if tracked
    files changed; 'unknown' when the root is not a git work tree."""
    if not shutil.which("git") or not os.path.exists(ROOT + "/.git"):
        return "unknown"
    proc = subprocess.run(["git", "-C", ROOT, "describe", "--always",
                           "--dirty"], stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def build():
    """Configure once, then build; compiler output goes to stderr."""
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    cmd = ["cmake", "--build", BUILD, "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    if not build():
        sys.stderr.write("stackbench: build failed\n")
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-rev", git_rev()]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        cmd += ["--spans-out",
                os.path.join(BUILD, "spans_%s.json" % args.workload)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("stackbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
