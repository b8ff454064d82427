#!/usr/bin/env bash
# Every CLI resolves --preset through one table: an unknown name exits 1
# and prints the valid list instead of silently running BerkMin, and a
# listed name that only dimacs_solver used to know (take_rand) works
# everywhere. The presets are dimacs_solver's only search configuration:
# the chosen preset's settings reach the solver unchanged, and the old
# per-knob tuning flags are unknown options.
#
#   tests/cli/unknown_preset_test.sh <class_runner> <hanoi_planner> <dimacs_solver>
set -u

CLASS_RUNNER=$1
HANOI=$2
SOLVER=$3

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

fail=0

expect() {
  local what=$1 want=$2
  shift 2
  "$@" >"$tmp/out.txt" 2>&1
  local got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: $what: expected exit $want, got $got"
    cat "$tmp/out.txt"
    fail=1
  elif [ "$want" -eq 1 ] && ! grep -q "berkmin, chaff" "$tmp/out.txt"; then
    echo "FAIL: $what: error does not list the valid presets"
    cat "$tmp/out.txt"
    fail=1
  fi
}

expect "class_runner --preset nosuch" 1 \
  "$CLASS_RUNNER" --class Hole --scale 1 --preset nosuch
expect "hanoi_planner --preset nosuch" 1 "$HANOI" --disks 2 --preset nosuch
expect "dimacs_solver --preset nosuch" 1 \
  "$SOLVER" --generate hole:4 --preset nosuch
expect "hanoi_planner --preset take_rand" 10 \
  "$HANOI" --disks 2 --preset take_rand

# limmat restarts every 10,000 conflicts; hole:8 takes fewer, so a run
# that restarts is running some other schedule.
"$SOLVER" --generate hole:8 --preset limmat --no-inprocess --stats \
  >"$tmp/out.txt" 2>&1
if ! grep -qx "c restarts 0" "$tmp/out.txt"; then
  echo "FAIL: dimacs_solver --preset limmat does not run limmat's restarts"
  grep "restarts" "$tmp/out.txt"
  fail=1
fi

for flag in restart young-max-len young-min-act old-max-len \
    old-act-threshold decay-interval decay-factor; do
  "$SOLVER" --generate hole:4 "--$flag" 5 >"$tmp/out.txt" 2>&1
  got=$?
  if [ "$got" -ne 1 ] || ! grep -q "unknown option --$flag" "$tmp/out.txt"; then
    echo "FAIL: dimacs_solver --$flag 5: expected exit 1 as an unknown" \
      "option, got $got"
    cat "$tmp/out.txt"
    fail=1
  fi
done

if [ "$fail" -eq 0 ]; then
  echo "unknown presets refused by every CLI; presets honored"
fi
exit "$fail"
