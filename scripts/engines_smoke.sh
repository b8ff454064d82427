#!/usr/bin/env bash
# Model-checking smoke: a seeded safety-property suite through
# model_checker, each instance checked by BMC *and* IC3 with the verdicts
# cross-checked (exit 3 on disagreement), every unsafe verdict replayed
# through circuit simulation and every safe verdict independently
# certified (exit 2 on any failure). The suite runs four ways per
# instance: an in-process solver, an in-process 4-thread portfolio, a
# SolverService session, and a session escalated to a 4-thread portfolio.
# One JSON object per engine run is appended to the output JSONL.
#
#   scripts/engines_smoke.sh [build-dir] [out-jsonl]
set -u

BUILD=${1:-build}
OUT=${2:-engines_smoke_results.jsonl}
MC="$BUILD/examples/model_checker"

: >"$OUT"
fail=0
runs=0
for spec in safe:1 safe:2 safe:3 safe:4 unsafe:1 unsafe:2 unsafe:3 unsafe:4 \
    latch:1 latch:2; do
  for mode in "" "--threads 4" "--service --threads 1" \
      "--service --threads 4"; do
    # shellcheck disable=SC2086  # $mode is intentionally word-split
    $MC --ts "$spec" --engine both --certify --json $mode >>"$OUT"
    rc=$?
    if [ "$rc" -ne 0 ]; then
      echo "FAIL: model_checker --ts $spec $mode (exit $rc)"
      fail=1
    fi
    runs=$((runs + 1))
  done
done

echo "engines smoke: $runs model_checker runs" \
  "(bmc+ic3 cross-checked, traces replayed, safe verdicts certified);" \
  "results in $OUT"
exit $fail
