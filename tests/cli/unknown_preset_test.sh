#!/usr/bin/env bash
# Every CLI resolves --preset through one table: an unknown name exits 1
# and prints the valid list instead of silently running BerkMin, and a
# listed name that only dimacs_solver used to know (take_rand) works
# everywhere.
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

if [ "$fail" -eq 0 ]; then
  echo "unknown presets refused by every CLI"
fi
exit "$fail"
