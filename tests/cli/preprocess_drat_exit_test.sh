#!/usr/bin/env bash
# Exit-code regression for the --preprocess/--drat combination: the CLI
# used to refuse it outright (exit 1 before solving anything). It now
# composes — preprocessing emits its own DRAT steps ahead of the solver's,
# so the combined trace certifies against the ORIGINAL formula — at one
# thread and across a portfolio. The only surviving refusal is the
# genuinely unsupported combo: incremental scripts + proofs + threads > 1.
#
#   tests/cli/preprocess_drat_exit_test.sh <dimacs_solver> <drat_check>
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

# UNSAT + preprocessing + proof, single-threaded: exit 20 and a trace the
# checker verifies against the unpreprocessed formula.
"$SOLVER" --generate hole:6 --preprocess --drat "$tmp/seq.drat" >/dev/null 2>&1
check_rc "hole:6 --preprocess --drat" 20 $?
"$CHECKER" --generate hole:6 "$tmp/seq.drat" --quiet
check_rc "drat_check of preprocessed trace" 0 $?

# Same through a 4-worker portfolio: the spliced trace (preprocess steps
# first) must also verify.
"$SOLVER" --generate hole:6 --preprocess --threads 4 --drat "$tmp/par.drat" \
  >/dev/null 2>&1
check_rc "hole:6 --preprocess --threads 4 --drat" 20 $?
"$CHECKER" --generate hole:6 "$tmp/par.drat" --quiet
check_rc "drat_check of spliced preprocessed trace" 0 $?

# SAT + preprocessing + proof + model validation: exit 10.
"$SOLVER" --generate par:12:10:3:sat:5 --preprocess --drat "$tmp/sat.drat" \
  --check-model >/dev/null 2>&1
check_rc "par(sat) --preprocess --drat --check-model" 10 $?

# A formula fully decided by preprocessing alone (unit chain to a
# contradiction) still answers 20 with a checkable trace.
cat >"$tmp/units.cnf" <<'EOF'
p cnf 3 4
1 0
-1 2 0
-2 3 0
-3 -1 0
EOF
"$SOLVER" "$tmp/units.cnf" --preprocess --drat "$tmp/units.drat" \
  >/dev/null 2>&1
check_rc "preprocess-only UNSAT" 20 $?
"$CHECKER" "$tmp/units.cnf" "$tmp/units.drat" --quiet
check_rc "drat_check of preprocess-only trace" 0 $?

# A SAT formula whose units preprocessing propagates: the printed model
# must set the units (1, and 2 through -1 2) true, so it satisfies the
# formula as given, not just the reduced one.
cat >"$tmp/sat_units.cnf" <<'EOF'
p cnf 4 3
1 0
-1 2 0
3 4 0
EOF
"$SOLVER" "$tmp/sat_units.cnf" --preprocess --model --check-model \
  >"$tmp/sat_units.out" 2>&1
check_rc "preprocessed units --model --check-model" 10 $?
if ! grep -Eq '^v 1 2 ' "$tmp/sat_units.out"; then
  echo "FAIL: preprocessed model drops the units:"
  cat "$tmp/sat_units.out"
  fail=1
fi

# The surviving refusal: incremental scripts with proofs need one thread.
cat >"$tmp/script.icnf" <<'EOF'
p inccnf
1 2 0
a 0
EOF
"$SOLVER" "$tmp/script.icnf" --drat "$tmp/inc.drat" --threads 2 \
  >/dev/null 2>&1
check_rc "icnf --drat --threads 2 (refused)" 1 $?
"$SOLVER" "$tmp/script.icnf" --drat "$tmp/inc.drat" >/dev/null 2>&1
check_rc "icnf --drat --threads 1 (allowed)" 10 $?

if [ "$fail" -eq 0 ]; then
  echo "preprocess/drat exit codes OK"
fi
exit "$fail"
