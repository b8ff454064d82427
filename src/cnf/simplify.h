// Clause normalization: the canonical form the solvers and the proof
// checker give every clause they store. Root-level simplification of a
// whole formula is core/inprocess.h's preprocess().
#pragma once

#include <vector>

#include "cnf/literal.h"

namespace berkmin {

// Sorts `lits` and removes duplicates in place. Returns false if the clause
// is a tautology (contains both l and ~l) and should be dropped; `lits` is
// then sorted but otherwise unspecified.
bool normalize_clause(std::vector<Lit>& lits);

}  // namespace berkmin
