#!/usr/bin/env bash
# Every numeric flag is registered with an inclusive range, and a value
# outside it exits 1 with an error naming the flag, before anything runs:
# no negative bound or budget read as a huge one, no thread count below 1
# or above the stated maximum, no fault rate outside [0, 1]. And every CLI
# answers --help with exit 0.
#
# The upper bounds on --threads and --pool are probed together with an
# argument that ends the run before any solving (--help, or an unknown
# --engine), so no build of these CLIs can start that many threads here.
#
#   tests/cli/flag_range_test.sh <model_checker> <dimacs_solver> \
#       <class_runner> <scorecard> <hanoi_planner> <equivalence_checker> \
#       <batch_solver> <drat_check> <telemetry_dump>
set -u

CHECKER=$1
SOLVER=$2
CLASS_RUNNER=$3
SCORECARD=$4
HANOI=$5
EQUIV=$6
BATCH=$7
DRAT_CHECK=$8
TELEMETRY_DUMP=$9

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

fail=0
HUGE=100000  # far above kMaxThreads

# expect_refused <flag> <command...>: exit 1 and an error naming --<flag>.
# A run that does not stop within the timeout (a range check missing and
# the value taken) counts as a failure too.
expect_refused() {
  local flag=$1
  shift
  timeout 60 "$@" >"$tmp/out.txt" 2>&1
  local got=$?
  if [ "$got" -ne 1 ]; then
    echo "FAIL: $*: expected exit 1, got $got"
    tail -5 "$tmp/out.txt"
    fail=1
  elif ! grep -q "option --$flag " "$tmp/out.txt"; then
    echo "FAIL: $*: error does not name --$flag"
    cat "$tmp/out.txt"
    fail=1
  fi
}

expect_refused bound "$CHECKER" --ts safe:3 --engine bmc --bound -2
# 2^32 + 2 would be read as bound 2.
expect_refused bound "$CHECKER" --ts safe:3 --engine bmc --bound 4294967298
expect_refused max-frames "$CHECKER" --ts safe:3 --engine ic3 --max-frames 0
expect_refused threads "$CHECKER" --ts safe:3 --engine bmc --threads 0
expect_refused threads "$CHECKER" --ts safe:3 --engine nosuch --threads "$HUGE"

expect_refused threads "$SOLVER" --generate hole:5 --threads 0
expect_refused threads "$SOLVER" --generate hole:5 --threads -1
expect_refused threads "$SOLVER" --generate hole:5 --threads "$HUGE" --help
expect_refused conflicts "$SOLVER" --generate hole:5 --conflicts -1
expect_refused timeout "$SOLVER" --generate hole:5 --timeout -1
# Fault injection stays bounded: a negative cap must not wrap to 2^32-1
# fires (with every consultation firing, such a run does not end), and a
# rate is a probability.
expect_refused fault-fires "$SOLVER" --generate hole:5 \
  --fault-sites alloc_clause --fault-fires -1 --fault-rate 7
expect_refused fault-fires "$SOLVER" --generate hole:5 \
  --fault-sites alloc_clause --fault-fires -1
expect_refused fault-rate "$SOLVER" --generate hole:5 \
  --fault-sites alloc_clause --fault-rate 7
expect_refused fault-rate "$SOLVER" --generate hole:5 \
  --fault-sites alloc_clause --fault-rate -0.5

expect_refused scale "$CLASS_RUNNER" --class Hole --scale 0
expect_refused threads "$CLASS_RUNNER" --class Hole --scale 1 --threads 0
expect_refused pool "$CLASS_RUNNER" --class Hole --scale 1 --pool 0
expect_refused threads "$CLASS_RUNNER" --threads "$HUGE" --help
expect_refused pool "$CLASS_RUNNER" --pool "$HUGE" --help

expect_refused scale "$SCORECARD" --scale 0 --timeout 1
expect_refused threads "$SCORECARD" --scale 1 --timeout 1 --threads 0
expect_refused threads "$SCORECARD" --threads "$HUGE" --help
# --table names a paper table (1-10) or the extensions ablation.
expect_refused table "$SCORECARD" --table 0
expect_refused table "$SCORECARD" --table 11
expect_refused table "$SCORECARD" --table nosuch

expect_refused disks "$HANOI" --disks 0
expect_refused moves "$HANOI" --moves -5
expect_refused width "$EQUIV" --width 0

# A negative per-instance timeout would run every instance without limit.
expect_refused timeout "$CLASS_RUNNER" --class Hole --scale 1 --timeout -1
expect_refused timeout "$SCORECARD" --scale 1 --timeout -1
# A negative gate count would check an empty circuit.
expect_refused gates "$EQUIV" --gates -5

# Every option read into an int stops at INT_MAX: 2^32 + k would be read
# as k. The scales are probed with --help, which ends the run before any
# instance is built.
expect_refused scale "$CLASS_RUNNER" --scale 4294967298 --help
expect_refused scale "$SCORECARD" --scale 4294967298 --help
expect_refused width "$EQUIV" --width 4294967297
expect_refused gates "$EQUIV" --gates 4294967376
expect_refused moves "$HANOI" --moves 4294967311
expect_refused disks "$HANOI" --disks 4294967299
# 2^31 - 1 moves do not fit the encoding's int arithmetic.
expect_refused disks "$HANOI" --disks 31

# Generator specs name a bad field the same way: not a whole number, out
# of range for its type, or past the family's last field.
expect_spec_refused() {
  local field=$1
  shift
  timeout 60 "$SOLVER" --generate "$@" >"$tmp/out.txt" 2>&1
  local got=$?
  if [ "$got" -ne 1 ]; then
    echo "FAIL: --generate $*: expected exit 1, got $got"
    tail -5 "$tmp/out.txt"
    fail=1
  elif ! grep -q "field $field" "$tmp/out.txt"; then
    echo "FAIL: --generate $*: error does not name field $field"
    cat "$tmp/out.txt"
    fail=1
  fi
}

expect_spec_refused "1 <holes>" hole:abc
expect_spec_refused "1 <holes>" hole:4294967299
expect_spec_refused "4 " rand3:50:213:1:junk
expect_spec_refused "1 <disks>" hanoi:31

for cli in "$CHECKER" "$SOLVER" "$CLASS_RUNNER" "$SCORECARD" "$HANOI" "$EQUIV" \
    "$BATCH" "$DRAT_CHECK" "$TELEMETRY_DUMP"; do
  timeout 60 "$cli" --help >"$tmp/out.txt" 2>&1
  got=$?
  if [ "$got" -ne 0 ]; then
    echo "FAIL: $cli --help: expected exit 0, got $got"
    tail -5 "$tmp/out.txt"
    fail=1
  fi
done

if [ "$fail" -eq 0 ]; then
  echo "out-of-range flag values refused; --help exits 0"
fi
exit "$fail"
