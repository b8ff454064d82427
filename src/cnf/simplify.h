// Clause normalization and root-level preprocessing.
//
// These transformations are satisfiability-preserving and are used both by
// the solvers when clauses are added and by tests/generators that want
// canonical formulas.
#pragma once

#include <vector>

#include "cnf/cnf_formula.h"

namespace berkmin {

// Sorts `lits` and removes duplicates in place. Returns false if the clause
// is a tautology (contains both l and ~l) and should be dropped; `lits` is
// then sorted but otherwise unspecified.
bool normalize_clause(std::vector<Lit>& lits);

struct SimplifyResult {
  Cnf cnf;                       // the simplified formula
  bool unsat = false;            // true if the root propagation hit a conflict
  std::vector<Lit> root_units;   // literals forced at the root level
};

// Exhaustive root-level unit propagation plus normalization: drops
// satisfied clauses, strips false literals, propagates resulting units to
// a fixed point. Variable numbering is preserved (no renaming).
SimplifyResult simplify(const Cnf& cnf);

}  // namespace berkmin
