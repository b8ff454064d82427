// Clause-level preprocessing: subsumption and self-subsuming resolution.
//
// An extension beyond the paper (preprocessing of this kind entered the
// mainstream with SatELite, after BerkMin): C subsumes D when C ⊆ D, and
// C self-subsumes D on literal l when (C \ {l}) ⊆ (D \ {~l}), allowing ~l
// to be deleted from D. Both transformations preserve equivalence, so the
// preprocessor can run in front of any solver configuration.
//
// With a ProofWriter attached, every rewrite is logged as DRAT
// add-before-delete pairs against the ORIGINAL formula — discovered root
// units as unit additions, stripped/strengthened clauses as an addition
// of the new form followed by a deletion of the old, subsumed clauses as
// plain deletions. Prepending these steps to a solver's trace over the
// reduced formula yields one trace a DratChecker verifies against the
// unpreprocessed input.
#pragma once

#include <cstdint>

#include "cnf/cnf_formula.h"

namespace berkmin::proof {
class ProofWriter;
}

namespace berkmin {

struct PreprocessOptions {
  bool subsumption = true;
  bool self_subsumption = true;
  int max_rounds = 10;  // fixpoint cap
};

struct PreprocessResult {
  Cnf cnf;                      // the reduced formula; keeps its root units
  bool unsat = false;           // a root-level contradiction was found
  std::uint64_t removed_subsumed = 0;
  std::uint64_t strengthened_literals = 0;
  std::uint64_t propagated_units = 0;
  int rounds = 0;
};

PreprocessResult preprocess(const Cnf& cnf, const PreprocessOptions& options = {},
                            proof::ProofWriter* proof = nullptr);

}  // namespace berkmin
