#!/usr/bin/env bash
# model_checker --json carries the reason for an unknown verdict: every
# line is one JSON object, an engine run that ended with an error has an
# "error" field holding the text mode's message, and a run without one
# has no such field.
#
#   tests/cli/model_checker_json_test.sh <model_checker>
set -u

CHECKER=$1

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

fail=0

# check_json <want exit> <want error or "-" for none> <model_checker args...>
check_json() {
  local want_exit=$1 want_error=$2
  shift 2
  "$CHECKER" "$@" --json >"$tmp/out.jsonl" 2>"$tmp/err.txt"
  local got=$?
  if [ "$got" -ne "$want_exit" ]; then
    echo "FAIL: $*: expected exit $want_exit, got $got"
    cat "$tmp/out.jsonl" "$tmp/err.txt"
    fail=1
    return
  fi
  if ! python3 - "$want_error" "$tmp/out.jsonl" <<'EOF'; then
import json
import sys

want, path = sys.argv[1], sys.argv[2]
lines = [line for line in open(path) if line.strip()]
if not lines:
    sys.exit("no JSON lines")
for line in lines:
    record = json.loads(line)
    if want == "-":
        if "error" in record:
            sys.exit("unexpected error field: " + record["error"])
    elif record.get("error") != want:
        sys.exit("error field %r, want %r" % (record.get("error"), want))
EOF
    echo "FAIL: $* --json"
    cat "$tmp/out.jsonl"
    fail=1
  fi
}

check_json 2 "ic3: frontier passed max_frames = 1" \
  --ts latch:7 --engine ic3 --max-frames 1
check_json 0 - --ts safe:3 --engine both

if [ "$fail" -eq 0 ]; then
  echo "model_checker --json reports engine errors"
fi
exit "$fail"
