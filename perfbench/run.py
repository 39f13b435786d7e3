#!/usr/bin/env python3
"""Build and run the Mira host-time benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload replay_gpt2 --seed 1 --seconds 20 --trace 0

Builds perfbench/ (its own CMake package, compiling ../src from source) into
$CARGO_TARGET_DIR, or .bench_build when that is unset, then runs the
benchmark binary once. The binary's stdout is passed through; its last line
is the result JSON ({"correct", "attempted", "failed", "metrics"}). Build
output goes to stderr. With --trace 1 the spans of the traced phase are
written to <build dir>/spans/<workload>-seed<seed>.json.

Exits non-zero without a result line when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("replay_gpt2", "sweep_graph", "faults_graph")
# Each invocation must end within 180 s; the build of a fresh checkout is
# allowed longer and is not counted against the run.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "pipeline", "optimizer.h")):
        fail("library sources not found under %s/src" % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    binary = os.path.join(build_dir, "mira_perfbench")
    if not os.path.isfile(binary):
        fail("build produced no %s" % binary)
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail("benchmark exited with code %d" % proc.returncode)
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line: " + lines[-1])
    sys.stdout.write(proc.stdout)
    print("perfbench: run took %.1f s" % (time.monotonic() - started), file=sys.stderr)


if __name__ == "__main__":
    main()
