#!/usr/bin/env bash
# Runs every workload of the end-to-end benchmark: one untraced process and
# one traced process each, printing every metric. Fails when a correctness
# check fails or when a workload's sim_digest differs between its untraced
# and traced runs (the traced run must simulate the same continuum).
#
#   bench_e2e/run_e2e.sh [--seed=N] [--smoke]
#
# --smoke runs the short variant of each workload (a few seconds in all).
set -euo pipefail

seed=1
smoke=()
seconds=20
for arg in "$@"; do
  case "$arg" in
    --seed=*) seed="${arg#--seed=}" ;;
    --smoke) smoke=(--smoke); seconds=1 ;;
    *) echo "usage: $0 [--seed=N] [--smoke]" >&2; exit 2 ;;
  esac
done

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
status=0
for workload in deploy_storm pilot_traffic churn_recovery; do
  digests=()
  for trace in 0 1; do
    echo "=== $workload seed $seed trace $trace"
    if ! out="$(python3 "$here/run.py" --workload "$workload" --seed "$seed" \
                  --seconds "$seconds" --trace "$trace" "${smoke[@]}")"; then
      status=1
    fi
    printf '%s\n' "$out"
    digests+=("$(printf '%s\n' "$out" | awk '$1 == "sim_digest" { print $2 }')")
  done
  if [[ -z "${digests[0]}" || "${digests[0]}" != "${digests[1]}" ]]; then
    echo "CHECK FAILED: $workload sim_digest untraced ${digests[0]:-none}" \
         "!= traced ${digests[1]:-none}"
    status=1
  fi
done
exit "$status"
