#!/usr/bin/env bash
# Round trip of the metrics dump: whatever dimacs_solver --metrics-out
# writes — JSON by default, Prometheus text for a .prom path —
# telemetry_dump must read back and render, including the solver
# counters and the phase profile.
#
#   tests/cli/telemetry_dump_round_trip_test.sh <dimacs_solver> <telemetry_dump>
set -u

SOLVER=$1
DUMP=$2

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

fail=0

round_trip() {
  local file=$1 counter=$2
  "$SOLVER" --generate hole:6 --metrics-out "$tmp/$file" >/dev/null 2>&1
  local rc=$?
  if [ "$rc" -ne 20 ]; then
    echo "FAIL: dimacs_solver --metrics-out $file: expected exit 20, got $rc"
    fail=1
    return
  fi
  if ! "$DUMP" "$tmp/$file" >"$tmp/out.txt" 2>&1; then
    echo "FAIL: telemetry_dump rejected $file:"
    cat "$tmp/out.txt"
    fail=1
    return
  fi
  for want in "$counter" "bcp" "phase"; do
    if ! grep -q "$want" "$tmp/out.txt"; then
      echo "FAIL: telemetry_dump output for $file lacks '$want'"
      fail=1
    fi
  done
}

round_trip metrics.json "solver.conflicts"
round_trip metrics.prom "berkmin_solver_conflicts_total"

# A truncated JSON dump is an error, not an empty table.
head -c 40 "$tmp/metrics.json" >"$tmp/broken.json"
if "$DUMP" "$tmp/broken.json" >/dev/null 2>&1; then
  echo "FAIL: telemetry_dump accepted a truncated JSON dump"
  fail=1
fi

exit $fail
