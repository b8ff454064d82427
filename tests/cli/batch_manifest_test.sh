#!/usr/bin/env bash
# batch_solver reads every manifest value as a whole token of its key's
# kind: a trailing character, a negative budget or deadline, threads below
# 1, or an assumption that is 0 or names a variable outside the entry's
# formula is a manifest error (exit 1, naming the key), never a value read
# in part or wrapped around; so is such a value in the flags that set the
# keys' defaults, and so is any service flag outside its range (exit 1,
# naming the flag), and a generator spec with a bad field (exit 1, naming
# the field). One valid line using every key runs (exit 0).
#
#   tests/cli/batch_manifest_test.sh <batch_solver>
set -u

BATCH=$1

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

fail=0

# expect <want-exit> <key or ""> <manifest line> [batch_solver flags...]
expect() {
  local want=$1 key=$2 line=$3
  shift 3
  printf '%s\n' "$line" >"$tmp/manifest.txt"
  "$BATCH" "$tmp/manifest.txt" --pool 1 "$@" >"$tmp/out.txt" 2>&1
  local got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: '$line' $*: expected exit $want, got $got"
    cat "$tmp/out.txt"
    fail=1
  elif [ -n "$key" ] && ! grep -q "manifest key '$key'" "$tmp/out.txt"; then
    echo "FAIL: '$line': error does not name the key '$key'"
    cat "$tmp/out.txt"
    fail=1
  fi
}

SPEC=rand3:20:80:1  # 20 variables
expect 1 assume "$SPEC assume=0"
expect 1 assume "$SPEC assume=1x"
expect 1 assume "$SPEC assume=21"
expect 1 assume "$SPEC assume=-21"
expect 1 assume "$SPEC assume=1,,2"
expect 1 assume "$SPEC assume="
expect 1 threads "$SPEC threads=2x"
expect 1 threads "$SPEC threads=0"
expect 1 conflicts "$SPEC conflicts=-1"
expect 1 conflicts "$SPEC conflicts=5x"
expect 1 deadline-ms "$SPEC deadline-ms=-5"
expect 1 priority "$SPEC priority=1.5"
# The flags that set the keys' defaults follow the same rules.
expect 1 "" "$SPEC" --conflicts -1
expect 1 "" "$SPEC" --deadline-ms -5
expect 1 "" "$SPEC" --threads 0
# So do the service flags: each has a range, and a value outside it exits
# 1 naming the flag. The upper bounds on --pool and --threads are probed
# with --help, which ends the run before any thread starts.
expect_flag() {
  local flag=$1
  shift
  "$BATCH" "$tmp/manifest.txt" "$@" >"$tmp/out.txt" 2>&1
  local got=$?
  if [ "$got" -ne 1 ] || ! grep -q "option --$flag " "$tmp/out.txt"; then
    echo "FAIL: $*: expected exit 1 naming --$flag, got $got"
    cat "$tmp/out.txt"
    fail=1
  fi
}
printf '%s\n' "$SPEC" >"$tmp/manifest.txt"
expect_flag pool --pool 0
expect_flag pool --pool -2
expect_flag pool --pool 100000 --help
expect_flag threads --pool 1 --threads 100000 --help
expect_flag slice-conflicts --pool 1 --slice-conflicts -1
expect_flag max-pending --pool 1 --max-pending 0
expect_flag max-pending --pool 1 --max-pending -1
expect_flag slice-retries --pool 1 --slice-retries -3
expect_flag watchdog-ms --pool 1 --watchdog-ms -5
expect_flag fault-rate --pool 1 --fault-rate 1.5
expect_flag fault-fires --pool 1 --fault-fires -1
expect_flag slice-retries --pool 1 --slice-retries 4294967298
# A spec with a bad field is no generator spec; its error rides along with
# the DIMACS fallback's.
expect_spec() {
  local field=$1 line=$2
  printf '%s\n' "$line" >"$tmp/manifest.txt"
  "$BATCH" "$tmp/manifest.txt" --pool 1 >"$tmp/out.txt" 2>&1
  local got=$?
  if [ "$got" -ne 1 ] || ! grep -q "field $field" "$tmp/out.txt"; then
    echo "FAIL: '$line': expected exit 1 naming field $field, got $got"
    cat "$tmp/out.txt"
    fail=1
  fi
}
expect_spec "1 <holes>" "hole:abc"
expect_spec "4 " "rand3:20:80:1:junk"
expect 0 "" "$SPEC name=ok deadline-ms=5000 conflicts=100000 threads=2 priority=3 assume=1,-20"

if [ "$fail" -eq 0 ]; then
  echo "malformed manifest values refused"
fi
exit "$fail"
