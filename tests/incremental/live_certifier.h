// Certifies a proof-logging Solver's incremental answers with one live,
// resumable proof::DratChecker. Every clause and group operation of a
// script goes through the certifier: it first feeds the checker the trace
// logged so far — so each step is verified once, against the formula it
// was derived from — then applies the operation to both the checker and
// the solver. answer_certified() certifies the solver's current UNSAT
// answer.
#pragma once

#include <span>

#include "cnf/cnf_formula.h"
#include "core/solver.h"
#include "proof/drat_checker.h"
#include "proof/proof_writer.h"

namespace berkmin::testing {

class LiveCertifier {
 public:
  explicit LiveCertifier(Solver& solver) : solver_(solver) {
    solver_.set_proof(&writer_);
  }

  void load(const Cnf& cnf) {
    sync();
    for (const auto& clause : cnf.clauses()) checker_.add_original(clause);
    solver_.load(cnf);
  }
  bool add_clause(std::span<const Lit> lits) {
    sync();
    checker_.add_original(lits, solver_.innermost_group());
    return solver_.add_clause(lits);
  }
  bool add_clause_to_group(GroupId group, std::span<const Lit> lits) {
    if (!solver_.group_is_live(group)) return false;
    sync();
    checker_.add_original(lits, group);
    return solver_.add_clause_to_group(group, lits);
  }
  bool pop_group(GroupId group) {
    if (!solver_.group_is_live(group)) return false;
    sync();
    checker_.retire_group(group);
    return solver_.pop_group(group);
  }
  bool pop_group() { return pop_group(solver_.innermost_group()); }
  bool set_group_active(GroupId group, bool active) {
    if (!solver_.group_is_live(group)) return false;
    sync();
    checker_.set_group_active(group, active);
    return solver_.set_group_active(group, active);
  }

  // Whether the checker certifies `core` as an unsatisfiable assumption
  // set: ¬core must be RUP over its live database (for an empty core, the
  // database must be refuted). After a SAT answer under assumptions A this
  // must fail for A — the soundness side of the checker.
  bool certifies(std::span<const Lit> core) {
    return checker_.answer_holds(writer_.proof(), core);
  }
  // The solver's current UNSAT answer.
  bool answer_certified() { return certifies(solver_.failed_assumptions()); }

  const proof::Proof& trace() const { return writer_.proof(); }
  const proof::DratChecker& checker() const { return checker_; }

 private:
  void sync() { checker_.consume(writer_.proof()); }

  Solver& solver_;
  proof::MemoryProofWriter writer_;
  proof::DratChecker checker_;
};

}  // namespace berkmin::testing
