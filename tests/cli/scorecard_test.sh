#!/usr/bin/env bash
# The scorecard end to end on its cheapest table: `--table 3` at scale 1
# solves the five skin-effect instances, exits 0, and prints Table 3 with
# exactly one verdict line for its claim.
#
#   tests/cli/scorecard_test.sh <scorecard>
set -u

out=$(timeout 100 "$1" --scale 1 --table 3 2>&1)
got=$?
if [ "$got" -ne 0 ]; then
  echo "FAIL: scorecard --scale 1 --table 3: expected exit 0, got $got"
  echo "$out"
  exit 1
fi
verdicts=$(echo "$out" | grep -cE '^- Table 3: (reproduced|not reproduced|inconclusive) — ')
if [ "$verdicts" -ne 1 ]; then
  echo "FAIL: expected one Table 3 verdict line, got $verdicts"
  echo "$out"
  exit 1
fi
echo "$out" | grep -E '^- Table 3: '
