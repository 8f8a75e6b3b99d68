#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 nodbbench/run.py --workload cold_explore --seed 1 --trace 0

Builds the engine and the benchmark program from source (Release, into
$CARGO_TARGET_DIR or .bench_build), writes the workload's seeded inputs
and the oracle's answers into a work directory under the build
directory, runs the timed pass in a fresh process, and removes the
work directory again. The program's last stdout line is the result
object; this script's exit status is the program's (0 only when every
answer was correct).

    python3 nodbbench/run.py --selftest

builds and runs the benchmark's own tests instead.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cold_explore", "warm_tpch", "served_mix")
# A run must end within 180 s; the timed pass gets what set-up leaves.
DEADLINE_S = 175


def build(out_dir, target):
    """Configures and builds `target`; build chatter goes to stderr."""
    cmake_dir = os.path.join(out_dir, "cmake")
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cmake_dir, "--target", target,
                  "-j", "4"])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            # A failed configure leaves a cache behind; start clean next time.
            shutil.rmtree(cmake_dir, ignore_errors=True)
            sys.exit("nodbbench: build failed: " + " ".join(step))
    return os.path.join(cmake_dir, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    start = time.monotonic()
    out_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                              ".bench_build")

    if args.selftest:
        test = build(out_dir, "nodbbench_test")
        sys.exit(subprocess.run(
            [test, os.path.join(out_dir, "selftest")]).returncode)
    if args.workload is None:
        parser.error("--workload is required")

    program = build(out_dir, "nodbbench")
    work = os.path.join(out_dir, "work",
                        "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--dir", work]
    try:
        prepared = subprocess.run([program, "prepare"] + common,
                                  stdout=sys.stderr, timeout=120)
        if prepared.returncode != 0:
            sys.exit("nodbbench: preparing inputs failed")
        command = [program, "run"] + common + [
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            traces = os.path.join(out_dir, "traces")
            os.makedirs(traces, exist_ok=True)
            command += ["--trace-out", os.path.join(
                traces, "%s-seed%d.json" % (args.workload, args.seed))]
        remaining = max(10, DEADLINE_S - (time.monotonic() - start))
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=remaining)
    except subprocess.TimeoutExpired as err:
        sys.exit("nodbbench: %s timed out" % err.cmd[1])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = run.stdout.rstrip("\n").split("\n")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    try:
        json.loads(lines[-1])
    except ValueError:
        sys.exit("nodbbench: the benchmark printed no result")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
