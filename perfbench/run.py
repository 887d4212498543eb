#!/usr/bin/env python3
"""Campaign benchmark entry point.

Builds perfbench_driver from this checkout's sources (a CMake project in
perfbench/, build tree in .bench_build/) and runs one workload:

    python3 perfbench/run.py --workload native_seq --seed 0 --seconds 28 --trace 0

The report of perfbench_driver is forwarded; its last line is the result JSON
({"correct", "attempted", "failed", "metrics"}). A run that cannot build or
start exits nonzero without printing a result. --workload all runs every
workload in turn, each in its own process.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("native_seq", "native_pool", "paper_fabric", "retest_diff")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "perfbench_driver", "-j", jobs],
    ]
    with open(log_path, "w") as log:
        for step in steps:
            try:
                code = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as error:
                fail("build step %s failed: %s" % (step[1], error))
            if code != 0:
                with open(log_path) as failed_log:
                    sys.stderr.write(failed_log.read()[-4000:])
                fail("build failed (log: %s)" % log_path)
    return os.path.join(build_dir, "perfbench_driver")


def run_workload(binary, root, build_dir, workload, args):
    command = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--root", root, "--work-dir", os.path.join(build_dir, "run")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                             text=True)
    except subprocess.TimeoutExpired:
        fail("perfbench_driver exceeded %d s" % RUN_TIMEOUT_S)
    if run.returncode != 0:
        sys.stdout.write(run.stdout)
        fail("perfbench_driver exited with code %d" % run.returncode)
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("perfbench_driver printed no result")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result: " + lines[-1])
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))
    sys.stdout.flush()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, ".bench_build")
    binary = build(root, build_dir)
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        run_workload(binary, root, build_dir, workload, args)


if __name__ == "__main__":
    main()
