#!/usr/bin/env bash
# batch_solver runs an incremental .icnf script as a service session next
# to a one-shot entry. The script (dimacs_solver --generate hole:4
# --icnf-out) pushes and pops groups and gets both answers. With --check
# --check-proofs --stats the run must exit 0 and print one JSONL line per
# `a` line of the script, one for the one-shot entry, and a summary whose
# session_solves equals the script's solve count.
#
#   tests/cli/batch_sessions_test.sh <dimacs_solver> <batch_solver>
set -u

SOLVER=$1
BATCH=$2

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

fail() {
  echo "FAIL: $*"
  cat "$tmp/out.jsonl" "$tmp/err.txt" 2>/dev/null
  exit 1
}

script="$tmp/hole4.icnf"
"$SOLVER" --generate hole:4 --icnf-out "$script" >/dev/null ||
  fail "script synthesis failed"
solves=$(grep -c '^a ' "$script")
[ "$solves" -ge 2 ] || fail "the script has $solves solves"
grep -q '^push ' "$script" || fail "the script pushes no group"
grep -q '^pop ' "$script" || fail "the script pops no group"

printf 'icnf:%s name=inc\nhole:4 name=oneshot\n' "$script" >"$tmp/manifest.txt"
"$BATCH" "$tmp/manifest.txt" --pool 2 --check --check-proofs --stats \
  >"$tmp/out.jsonl" 2>"$tmp/err.txt"
rc=$?
[ "$rc" -eq 0 ] || fail "batch_solver exited $rc"

answers=$(grep -c '"name":"inc#' "$tmp/out.jsonl")
[ "$answers" -eq "$solves" ] ||
  fail "$answers session answers for $solves solves"
grep '"name":"inc#' "$tmp/out.jsonl" | grep -q '"status":"SATISFIABLE"' ||
  fail "no session answer is SAT"
grep '"name":"inc#' "$tmp/out.jsonl" | grep -q '"status":"UNSATISFIABLE"' ||
  fail "no session answer is UNSAT"
if grep -q '"model_valid":false\|"proof_valid":false' "$tmp/out.jsonl"; then
  fail "an answer failed validation"
fi
oneshot=$(grep -c '"name":"oneshot"' "$tmp/out.jsonl")
[ "$oneshot" -eq 1 ] || fail "$oneshot lines for the one-shot entry"

summary=$(grep '"summary":true' "$tmp/out.jsonl")
[ -n "$summary" ] || fail "no summary line"
case "$summary" in
  *"\"session_solves\":$solves,"*) ;;
  *) fail "summary session_solves is not $solves" ;;
esac
echo "batch sessions: $solves session answers and one one-shot answer"
