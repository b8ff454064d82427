#!/usr/bin/env bash
# Certify every answer on the smoke manifest: solve each instance with
# --drat --check-model, single-threaded and as a 4-worker portfolio, in
# two modes — inprocessing on (the CLI default), and inprocessing plus
# --preprocess, one up-front inprocessing pass whose DRAT steps lead the
# trace so it still certifies against the ORIGINAL formula. Every UNSAT trace
# is verified with the in-tree checker (drat_check) and every extracted
# core re-solved expecting UNSAT. Any unverified answer fails the run.
#
#   scripts/proof_smoke.sh [build-dir] [manifest]
set -u

BUILD=${1:-build}
MANIFEST=${2:-examples/manifests/smoke20.txt}
SOLVER="$BUILD/examples/dimacs_solver"
CHECKER="$BUILD/examples/drat_check"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

fail=0
unsat_checked=0
sat_checked=0

while read -r spec _rest; do
  case "$spec" in '' | '#'*) continue ;; esac
  for threads in 1 4; do
    for mode in inprocess preprocess; do
      extra=""
      if [ "$mode" = preprocess ]; then extra="--preprocess"; fi
      "$SOLVER" --generate "$spec" --threads "$threads" $extra \
        --drat "$tmp/trace.drat" --check-model --timeout 300 >/dev/null
      rc=$?
      if [ "$rc" -eq 10 ]; then
        # Satisfiable: the model was already validated by --check-model.
        sat_checked=$((sat_checked + 1))
        continue
      fi
      if [ "$rc" -ne 20 ]; then
        echo "FAIL: $spec (threads=$threads, $mode): solver exit $rc"
        fail=1
        continue
      fi
      if ! "$CHECKER" --generate "$spec" "$tmp/trace.drat" \
          --core "$tmp/core.cnf" --quiet; then
        echo "FAIL: $spec (threads=$threads, $mode): trace did not verify"
        fail=1
        continue
      fi
      "$SOLVER" "$tmp/core.cnf" >/dev/null
      if [ $? -ne 20 ]; then
        echo "FAIL: $spec (threads=$threads, $mode): extracted core is not UNSAT"
        fail=1
        continue
      fi
      unsat_checked=$((unsat_checked + 1))
    done
  done
done <"$MANIFEST"

echo "proof smoke: $unsat_checked UNSAT answers certified (trace + core)," \
  "$sat_checked SAT models validated"
exit $fail
