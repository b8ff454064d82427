#!/usr/bin/env bash
# dimacs_solver drives one engine interface whether it runs one solver
# (--threads 1) or a portfolio (--threads N): one-shot answers, models,
# DRAT traces and scripted (.icnf) sessions must behave the same at either
# width, with the documented exit codes (10 = SAT, 20 = UNSAT, 0 =
# unknown, 1 = usage error or failed check); --stats adds the race to the
# search statistics only at N > 1.
#
#   tests/cli/dimacs_solver_engines_test.sh <dimacs_solver> <drat_check>
set -u

SOLVER=$1
CHECKER=$2

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

fail=0

check_rc() {
  local what=$1 want=$2 got=$3
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: $what: expected exit $want, got $got"
    fail=1
  fi
}

for threads in 1 2; do
  # One-shot SAT: the model is validated before the answer is printed.
  "$SOLVER" --generate par:12:10:3:sat:5 --threads "$threads" --check-model \
    --model >"$tmp/sat.out" 2>&1
  check_rc "one-shot SAT --threads $threads" 10 $?
  grep -q '^v ' "$tmp/sat.out" || {
    echo "FAIL: one-shot SAT --threads $threads printed no model"
    fail=1
  }

  # One-shot UNSAT with a DRAT trace the in-tree checker verifies.
  "$SOLVER" --generate hole:6 --threads "$threads" --check-model \
    --drat "$tmp/unsat$threads.drat" >/dev/null 2>&1
  check_rc "one-shot UNSAT --threads $threads" 20 $?
  "$CHECKER" --generate hole:6 "$tmp/unsat$threads.drat" --quiet
  check_rc "drat_check of the --threads $threads trace" 0 $?

  # A conflict budget that runs out answers unknown.
  "$SOLVER" --generate hole:9 --threads "$threads" --conflicts 20 \
    >/dev/null 2>&1
  check_rc "budget-limited --threads $threads" 0 $?
done

# --stats describes the race of a portfolio (the winner, one line per
# worker, the clause exchange) and no race for a single solver.
"$SOLVER" --generate hole:7 --threads 2 --stats >"$tmp/stats2.out" 2>&1
check_rc "--stats --threads 2" 20 $?
grep -q '^c winner ' "$tmp/stats2.out" || {
  echo "FAIL: --threads 2 --stats printed no winner line"
  fail=1
}
workers=$(grep -c '^c worker ' "$tmp/stats2.out")
if [ "$workers" -ne 2 ]; then
  echo "FAIL: --threads 2 --stats printed $workers worker lines, expected 2"
  fail=1
fi
grep -q '^c exchange: ' "$tmp/stats2.out" || {
  echo "FAIL: --threads 2 --stats printed no exchange line"
  fail=1
}
# A race that runs out of budget has no winner: its statistics are the
# workers' search summed, and the winner line says none.
"$SOLVER" --generate hole:9 --threads 2 --conflicts 20 --stats \
  >"$tmp/stats_unknown.out" 2>&1
check_rc "--stats on an unknown --threads 2 race" 0 $?
grep -q '^c winner none$' "$tmp/stats_unknown.out" || {
  echo "FAIL: an unknown race's --stats printed no 'c winner none' line:"
  cat "$tmp/stats_unknown.out"
  fail=1
}
conflicts=$(sed -n 's/^c conflicts \([0-9]*\)$/\1/p' "$tmp/stats_unknown.out")
if [ -z "$conflicts" ] || [ "$conflicts" -eq 0 ]; then
  echo "FAIL: an unknown race's --stats printed conflicts '$conflicts'," \
    "not the workers' sum"
  fail=1
fi
"$SOLVER" --generate hole:7 --threads 1 --stats >"$tmp/stats1.out" 2>&1
check_rc "--stats --threads 1" 20 $?
grep -q '^c conflicts ' "$tmp/stats1.out" || {
  echo "FAIL: --threads 1 --stats printed no search statistics"
  fail=1
}
if grep -qE '^c (winner|worker|exchange:) ' "$tmp/stats1.out"; then
  echo "FAIL: --threads 1 --stats printed a race:"
  cat "$tmp/stats1.out"
  fail=1
fi

# Scripted sessions: the last answer sets the exit code.
cat >"$tmp/unsat_last.icnf" <<'EOF'
p inccnf
1 2 0
-1 3 0
a 0
push 0
-3 0
a 2 0
a -2 0
pop 0
a -2 0
push 0
-3 0
-2 0
a 0
EOF
{ cat "$tmp/unsat_last.icnf"; printf 'pop 0\na 0\n'; } >"$tmp/sat_last.icnf"

"$SOLVER" "$tmp/unsat_last.icnf" --threads 1 --check-incremental \
  >"$tmp/scripted.out" 2>&1
check_rc "scripted (UNSAT last) --threads 1 --check-incremental" 20 $?
grep -q '3 models validated, 2 UNSAT answers certified' "$tmp/scripted.out" || {
  echo "FAIL: --check-incremental did not check every answer:"
  cat "$tmp/scripted.out"
  fail=1
}
"$SOLVER" "$tmp/sat_last.icnf" --threads 1 --check-incremental >/dev/null 2>&1
check_rc "scripted (SAT last) --threads 1 --check-incremental" 10 $?
"$SOLVER" "$tmp/unsat_last.icnf" --threads 2 >/dev/null 2>&1
check_rc "scripted (UNSAT last) --threads 2" 20 $?
"$SOLVER" "$tmp/sat_last.icnf" --threads 2 >/dev/null 2>&1
check_rc "scripted (SAT last) --threads 2" 10 $?

# Scripted portfolios honor --preset like one-shot ones: with chaff on
# every worker, no decision comes from a BerkMin top clause.
"$SOLVER" --generate hole:7 --icnf-out "$tmp/hole7.icnf" >/dev/null 2>&1
check_rc "--icnf-out" 0 $?
"$SOLVER" "$tmp/hole7.icnf" --preset chaff --threads 2 \
  --metrics-out "$tmp/metrics.json" >/dev/null 2>&1
check_rc "scripted --preset chaff --threads 2" 10 $?
grep -q '"solver.decisions":[1-9]' "$tmp/metrics.json" || {
  echo "FAIL: scripted --threads 2 made no decisions"
  fail=1
}
grep -q '"solver.top_clause_decisions":0[,}]' "$tmp/metrics.json" || {
  echo "FAIL: scripted --preset chaff --threads 2 ran a BerkMin worker:"
  grep -o '"solver.top_clause_decisions":[0-9]*' "$tmp/metrics.json"
  fail=1
}

# Usage errors exit 1.
"$SOLVER" --generate hole:6 --preset nonesuch >/dev/null 2>&1
check_rc "unknown preset" 1 $?
"$SOLVER" "$tmp/unsat_last.icnf" --threads 2 --drat "$tmp/refused.drat" \
  >/dev/null 2>&1
check_rc "scripted proof with --threads 2" 1 $?
"$SOLVER" >/dev/null 2>&1
check_rc "no input" 1 $?

exit $fail
