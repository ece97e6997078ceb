#!/usr/bin/env python3
"""Build and run one process of the end-to-end continuum benchmark.

    python3 bench_e2e/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds bench_e2e and the MYRTUS libraries it links from the sources of this
checkout, with CMake, into $CARGO_TARGET_DIR/bench_e2e (default
.bench_build/bench_e2e under the checkout root), then runs the benchmark.
Build output goes to stderr; the last line of stdout is the benchmark's JSON
result. --trace 1 also writes a Chrome trace next to the binary. --smoke runs
the short variant of each workload. The exit status is the benchmark's.
"""
import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("deploy_storm", "pilot_traffic", "churn_recovery")


def build(source, build_dir):
    def run(cmd):
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            sys.exit(f"run.py: {' '.join(cmd)} failed with {result.returncode}")

    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", source, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run(cmd)
    jobs = str(min(4, os.cpu_count() or 1))
    run(["cmake", "--build", build_dir, "-j", jobs])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    for needed in ("CMakeLists.txt", "src/CMakeLists.txt", "bench/report.cpp"):
        if not os.path.isfile(os.path.join(root, needed)):
            sys.exit(f"run.py: {needed} is missing from {root}; the benchmark "
                     "builds the MYRTUS sources of the checkout it sits in")

    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "bench_e2e")
    build(here, build_dir)

    cmd = [os.path.join(build_dir, "bench_e2e"),
           f"--workload={args.workload}",
           f"--seed={args.seed}",
           f"--seconds={args.seconds}",
           f"--out={os.path.join(build_dir, 'BENCH_e2e_' + args.workload + '.json')}"]
    if args.trace:
        cmd.append(f"--trace={os.path.join(build_dir, 'trace_' + args.workload + '.json')}")
    if args.smoke:
        cmd.append("--smoke")
    sys.stdout.flush()
    return subprocess.call(cmd)


if __name__ == "__main__":
    sys.exit(main())
