// Restart-time inprocessing: failed-literal probing, subsumption and
// self-subsumption, vivification, and bounded variable elimination, run
// against the live solver database at the restart safe point (decision
// level 0, propagation fixpoint).
//
// Every rewrite is certifiable: each pass emits DRAT add-before-delete
// pairs through the solver's attached ProofWriter, so a trace produced
// with inprocessing enabled still verifies against the ORIGINAL formula —
// probed units and strengthened/vivified clauses are RUP at the moment
// they are logged, resolvents of two live clauses are RUP, and deletions
// are always sound. The in-tree proof::DratChecker accepts the result
// unchanged.
//
// Every pass is skipped while clause groups (selector variables) are
// active: conclusions drawn from a retractable group clause must not
// delete or rewrite group-independent clauses. Bounded variable
// elimination is additionally gated behind InprocessOptions::var_elim
// (and skipped while a solve holds assumptions), because it is only sound
// when the caller can never mention the eliminated variable again —
// single-shot CLI solving guarantees that; the incremental API does not.
//
// preprocess() runs the same passes in front of another engine: one pass
// over a scratch solver, exported back to a formula.
#pragma once

#include <cstdint>
#include <vector>

#include "cnf/cnf_formula.h"
#include "cnf/literal.h"
#include "core/solver_types.h"

namespace berkmin::proof {
class ProofWriter;
}

namespace berkmin {

class Solver;

class Inprocessor {
 public:
  explicit Inprocessor(Solver& solver);

  // Runs one inprocessing pass. Must be called at decision level 0 with
  // propagation at fixpoint (the restart boundary). May flip the solver's
  // ok() flag (and close the proof with the empty clause) when a pass
  // refutes the formula.
  void run();

  // Overrides the values of eliminated variables in a model (external
  // numbering, which coincides with internal numbering whenever variable
  // elimination was allowed to run) so that every original clause removed
  // by elimination is satisfied. Processes eliminations newest-first, the
  // order the witnesses were stacked.
  void extend_model(std::vector<Value>& model) const;

  // The live database as a formula: the root-trail units first, then
  // every stored original the root does not satisfy, with its root-false
  // literals stripped (learned clauses are left out). A refuted database
  // exports as the empty clause. Requires decision level 0, no clause
  // groups, and no eliminated variable — their clauses are gone, and only
  // extend_model could restore their values.
  Cnf formula() const;

 private:
  // One bounded-variable-elimination record: the variable and copies of
  // the original clauses removed with it (the witness for extend_model).
  struct Elimination {
    Var var;
    std::vector<std::vector<Lit>> clauses;
  };

  // Index of the live database built once per pass: literal copies of
  // every stored clause plus occurrence lists, with lazy removal marks.
  struct Item {
    ClauseRef ref;
    bool learned;
    bool removed = false;
    std::uint32_t glue = 0;
    // Position in the solver's originals_/learned_stack_ vector, used to
    // build the garbage-collection keep masks in apply_removals.
    std::uint32_t stack_index = 0;
    std::uint64_t signature = 0;
    std::vector<Lit> lits;  // sorted
  };

  // Each returns false when the formula was refuted mid-pass.
  bool probe_failed_literals();
  bool subsume_and_strengthen();
  bool vivify_clauses();
  bool eliminate_variables();

  // Rebuilds items_/occ_ from the solver's current database.
  void build_index();
  // Applies the removal marks accumulated in items_ through one garbage
  // collection, emitting proof deletions for each removed clause.
  void apply_removals();

  // Logs and installs a clause derived by a pass (RUP at this point) as a
  // replacement or resolvent. Returns false on refutation. The new clause
  // is appended to the solver DB but NOT to items_ — passes treat within-
  // pass additions as opaque.
  bool install_derived(const std::vector<Lit>& lits, bool learned,
                       std::uint32_t glue);
  // Asserts a root unit proven by a pass (already proof-logged) and
  // propagates to fixpoint. Returns false on refutation.
  bool assert_unit(Lit l);

  static std::uint64_t signature_of(const std::vector<Lit>& lits);

  Solver& s_;
  std::vector<Item> items_;
  // Occurrence lists over items_, indexed by literal code.
  std::vector<std::vector<std::uint32_t>> occ_;
  // Variables mentioned by any clause installed during the current pass.
  // Such clauses are not in items_, so bounded variable elimination must
  // not pick these variables — it could not see (and remove) every clause
  // containing them.
  std::vector<char> derived_var_;
  std::vector<Elimination> eliminations_;
  // Round-robin cursors so consecutive passes cover different regions.
  std::uint32_t probe_cursor_ = 0;
  std::uint32_t vivify_cursor_ = 0;
  // Scratch.
  std::vector<Lit> unit_scratch_;
  std::vector<Lit> derived_scratch_;
};

struct PreprocessResult {
  Cnf cnf;             // root units first, then the surviving clauses
  bool unsat = false;  // refuted; the trace then ends with the empty clause
  std::uint64_t subsumed_clauses = 0;
  std::uint64_t strengthened_clauses = 0;
  std::uint64_t root_units = 0;
};

// Simplifies `cnf` for another engine to solve: loads it into a scratch
// Solver that logs into `proof`, runs one Inprocessor pass (probing,
// subsumption, self-subsumption; never variable elimination, since the
// engine solving the result could not extend its models), and exports
// formula(). Each exported clause was logged by the pass, is an original,
// or is an original with root-false literals stripped, which unit
// propagation over the checker's database reproduces: the pass's steps
// followed by any solver's trace over result.cnf certify against `cnf`,
// and every model of result.cnf satisfies `cnf`.
PreprocessResult preprocess(const Cnf& cnf, proof::ProofWriter* proof = nullptr);

}  // namespace berkmin
