// Clausal proof traces.
//
// A Proof is the ordered list of clause additions and deletions a solver
// (or a portfolio of solvers) performed after loading the original
// formula. Every addition our CDCL engine emits is a reverse-unit-
// propagation (RUP) consequence of the formula plus the earlier live
// additions, so the trace is a valid DRUP/DRAT proof: when it ends in the
// empty clause it certifies unsatisfiability, and DratChecker
// (drat_checker.h) can verify it without trusting the solver.
//
// A step is its DRAT content and nothing else: a portfolio's spliced trace
// (proof/splice.h) is the same kind of Proof as a single solver's, and no
// step records which worker produced it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cnf/literal.h"

namespace berkmin::proof {

enum class StepKind : std::uint8_t {
  add,      // the clause is claimed RUP w.r.t. the live database
  del,      // one live copy of the clause is removed
};

struct ProofStep {
  StepKind kind = StepKind::add;
  std::vector<Lit> lits;  // empty for the final (empty-clause) addition

  bool is_add() const { return kind == StepKind::add; }
  bool is_delete() const { return kind == StepKind::del; }

  friend bool operator==(const ProofStep&, const ProofStep&) = default;
};

struct Proof {
  std::vector<ProofStep> steps;

  std::size_t size() const { return steps.size(); }
  bool empty() const { return steps.empty(); }

  std::size_t num_adds() const;
  std::size_t num_deletes() const;

  // True when the trace contains an addition of the empty clause — the
  // shape every complete unsatisfiability proof must have.
  bool ends_with_empty() const;

  void add(std::span<const Lit> lits) {
    steps.push_back(ProofStep{StepKind::add, {lits.begin(), lits.end()}});
  }
  void del(std::span<const Lit> lits) {
    steps.push_back(ProofStep{StepKind::del, {lits.begin(), lits.end()}});
  }
};

}  // namespace berkmin::proof
