// Clause normalization: the canonical form the solvers and the proof
// checker give every clause they store. Root-level simplification of a
// whole formula is core/inprocess.h's preprocess().
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "cnf/literal.h"

namespace berkmin {

// What normalize_clause(span) returns for a tautology.
inline constexpr std::size_t tautology = static_cast<std::size_t>(-1);

// Sorts `lits` in place and moves its distinct literals, in order, to its
// front. Returns how many there are, or `tautology` if the clause contains
// both l and ~l and should be dropped; `lits` is then unspecified. Clauses
// of up to four literals, most of a Tseitin encoding and every binary, are
// sorted inline; the result is the same either way.
std::size_t normalize_clause(std::span<Lit> lits);
// As above on a vector, which keeps only the distinct literals: false for
// a tautology.
bool normalize_clause(std::vector<Lit>& lits);

}  // namespace berkmin
