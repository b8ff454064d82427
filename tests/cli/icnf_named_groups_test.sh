#!/usr/bin/env bash
# tests/cli/named_groups.icnf uses every .icnf directive (named pops,
# adds to named groups, deactivate/activate) and gets both answers. A
# checked single solver (dimacs_solver --check-incremental), a 2-thread
# portfolio (dimacs_solver --threads 2) and a certified service session
# (batch_solver --check --check-proofs) must each give the answers listed
# in the script's header, in order.
#
#   tests/cli/icnf_named_groups_test.sh <dimacs_solver> <batch_solver>
set -u

SOLVER=$1
BATCH=$2
SCRIPT="$(cd "$(dirname "$0")" && pwd)/named_groups.icnf"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

fail() {
  echo "FAIL: $*"
  cat "$tmp/err.txt" 2>/dev/null
  exit 1
}

expected=$(sed -n 's/^c Answers: //p' "$SCRIPT" |
  sed 's/UNSAT/UNSATISFIABLE/g; s/\bSAT\b/SATISFIABLE/g' | tr ' ' '\n')
[ "$(grep -c '^a ' "$SCRIPT")" -eq "$(echo "$expected" | wc -l)" ] ||
  fail "the header lists $(echo "$expected" | wc -l) answers"

"$SOLVER" "$SCRIPT" --check-incremental >"$tmp/checked.txt" 2>"$tmp/err.txt"
rc=$?
[ "$rc" -eq 10 ] || fail "--check-incremental exited $rc"
grep -q "UNSAT answers certified" "$tmp/checked.txt" ||
  fail "--check-incremental certified nothing"
[ "$(sed -n 's/^s //p' "$tmp/checked.txt")" = "$expected" ] ||
  fail "--check-incremental answers differ: $(sed -n 's/^s //p' "$tmp/checked.txt" | tr '\n' ' ')"

"$SOLVER" "$SCRIPT" --threads 2 >"$tmp/raced.txt" 2>"$tmp/err.txt"
rc=$?
[ "$rc" -eq 10 ] || fail "--threads 2 exited $rc"
[ "$(sed -n 's/^s //p' "$tmp/raced.txt")" = "$expected" ] ||
  fail "--threads 2 answers differ: $(sed -n 's/^s //p' "$tmp/raced.txt" | tr '\n' ' ')"

printf 'icnf:%s name=ng\n' "$SCRIPT" >"$tmp/manifest.txt"
"$BATCH" "$tmp/manifest.txt" --check --check-proofs >"$tmp/out.jsonl" \
  2>"$tmp/err.txt"
rc=$?
[ "$rc" -eq 0 ] || fail "batch_solver exited $rc"
served=$(grep '"name":"ng#' "$tmp/out.jsonl" |
  sed 's/.*"status":"\([A-Z]*\)".*/\1/')
[ "$served" = "$expected" ] ||
  fail "session answers differ: $(echo "$served" | tr '\n' ' ')"
if grep -q '"model_valid":false\|"proof_valid":false' "$tmp/out.jsonl"; then
  fail "a session answer failed validation"
fi
grep '"name":"ng#' "$tmp/out.jsonl" | grep -q '"proof_valid":true' ||
  fail "no session UNSAT answer was certified"
echo "named groups: $(echo "$expected" | wc -l) answers agree across solver, portfolio and session"
