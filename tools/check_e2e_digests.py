#!/usr/bin/env python3
"""Check that every end-to-end workload still simulates what its baseline did.

    python3 tools/check_e2e_digests.py

For each bench_e2e workload, runs bench_e2e/run.py in full mode with
--seed 1 --seconds 1 and compares the run's sim_digest (a hash of every
sim-clock result: operation latencies, outcomes, per-layer counts) with
extra.sim_digest in bench_e2e/baselines/BENCH_e2e_<workload>.json. Exits 1
when any digest differs or a run fails. A host-time optimisation must leave
every digest unchanged. Reads bench_e2e/ and writes nothing under it: run.py
builds into .bench_build/ (or $CARGO_TARGET_DIR).
"""
import json
import os
import subprocess
import sys

WORKLOADS = ("deploy_storm", "pilot_traffic", "churn_recovery")


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    bench = os.path.join(root, "bench_e2e")
    failed = False
    for workload in WORKLOADS:
        with open(os.path.join(bench, "baselines", f"BENCH_e2e_{workload}.json")) as f:
            want = json.load(f)["extra"]["sim_digest"]
        run = subprocess.run(
            [sys.executable, os.path.join(bench, "run.py"), "--workload", workload,
             "--seed", "1", "--seconds", "1"],
            stdout=subprocess.PIPE, text=True)
        got = next((line.split()[1] for line in run.stdout.splitlines()
                    if line.startswith("sim_digest ")), None)
        ok = run.returncode == 0 and got == want
        failed = failed or not ok
        print(f"{workload}: sim_digest {got or 'missing'}, baseline {want}, "
              f"exit {run.returncode}: {'ok' if ok else 'MISMATCH'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
