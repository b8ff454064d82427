// The certified-session protocol, written once. A live, resumable
// DratChecker certifies an incremental engine's UNSAT answers soundly only
// if it consumes the trace logged so far before each clause or group
// operation (so each step is checked against the formula it was derived
// from) and each clause enters it tagged with the group it lands in.
// LiveCertifier is the only code that applies this rule: service
// sessions, the engines' SolverBackend, dimacs_solver's scripted mode and
// the incremental tests send every clause and group operation through it,
// most of them as icnf::apply(certifier, op): it has the engine's named
// group methods, push_group, group_is_live and innermost_group forwarded.
// It creates the engine's trace and attaches it (SatEngine::set_proof), so
// no caller builds a writer; when answers are checked it also owns the
// checker. Without a checker the operations go straight to the engine.
// The engine owns its live groups.
//
//   Solver solver;
//   proof::LiveCertifier certifier(solver, /*log=*/true, /*check=*/true);
//   certifier.add_clause(lits);
//   if (solver.solve() == SolveStatus::unsatisfiable)
//     assert(certifier.answer_certified());
#pragma once

#include <memory>
#include <span>
#include <utility>

#include "core/sat_engine.h"
#include "proof/drat_checker.h"
#include "proof/proof_writer.h"

namespace berkmin::proof {

class LiveCertifier {
 public:
  // Follows `engine`, which must not have solved yet. With `log`, a fresh
  // trace is attached to it (the engine must not solve once the certifier
  // is gone); with `log` and `check`, a live checker certifies its
  // answers: a new one, or `spare` reset (a released checker whose buffers
  // it reuses, see DratChecker::reset).
  LiveCertifier(SatEngine& engine, bool log, bool check,
                std::unique_ptr<DratChecker> spare = nullptr)
      : engine_(engine) {
    if (!log) return;
    writer_ = std::make_unique<MemoryProofWriter>();
    engine_.set_proof(writer_.get());
    if (!check) return;
    if (spare == nullptr) {
      checker_ = std::make_unique<DratChecker>();
      return;
    }
    spare->reset();
    checker_ = std::move(spare);
  }

  LiveCertifier(const LiveCertifier&) = delete;
  LiveCertifier& operator=(const LiveCertifier&) = delete;

  // The engine's calls, with its returns: false for a dead group handle
  // (which reaches neither side) and for an add once the formula is
  // unsatisfiable at the root. A push reaches only the engine; a group
  // enters the checker with its first clause.
  bool load(const Cnf& cnf) {
    sync();
    if (checker_ != nullptr) {
      for (const auto clause : cnf.clauses()) {
        checker_->add_original(clause, engine_.innermost_group());
      }
    }
    return engine_.load(cnf);
  }
  bool add_clause(std::span<const Lit> lits) {  // into the innermost group
    sync();
    if (checker_ != nullptr) {
      checker_->add_original(lits, engine_.innermost_group());
    }
    return engine_.add_clause(lits);
  }
  bool add_clause_to_group(GroupId group, std::span<const Lit> lits) {
    if (!engine_.group_is_live(group)) return false;
    sync();
    if (checker_ != nullptr) checker_->add_original(lits, group);
    return engine_.add_clause_to_group(group, lits);
  }
  bool pop_group(GroupId group) {
    if (!engine_.group_is_live(group)) return false;
    sync();
    if (checker_ != nullptr) checker_->retire_group(group);
    return engine_.pop_group(group);
  }
  GroupId push_group() { return engine_.push_group(); }
  bool group_is_live(GroupId group) const {
    return engine_.group_is_live(group);
  }
  GroupId innermost_group() const { return engine_.innermost_group(); }
  bool set_group_active(GroupId group, bool active) {
    if (!engine_.group_is_live(group)) return false;
    sync();
    if (checker_ != nullptr) checker_->set_group_active(group, active);
    return engine_.set_group_active(group, active);
  }

  // The engine it follows: solve it and read its answers.
  SatEngine& engine() const { return engine_; }
  bool checking() const { return checker_ != nullptr; }
  // Whether the checker certifies `core` as an unsatisfiable assumption
  // set: ¬core is RUP over its live database (for an empty core, the
  // database is refuted). After a SAT answer under assumptions A this must
  // fail for A. Requires checking().
  bool certifies(std::span<const Lit> core) {
    return checker_->answer_holds(writer_->proof(), core);
  }
  // The engine's current UNSAT answer.
  bool answer_certified() { return certifies(engine_.failed_assumptions()); }
  // Observes the checker's verification passes (nullptr detaches).
  void set_telemetry(const telemetry::SolverTelemetry* sink) {
    if (checker_ != nullptr) checker_->set_telemetry(sink);
  }

  const Proof& trace() const { return writer_->proof(); }  // requires one
  const DratChecker& checker() const { return *checker_; }
  // Hands the checker over (nullptr without one) for a later certifier to
  // reuse; this one checks nothing more.
  std::unique_ptr<DratChecker> release_checker() { return std::move(checker_); }

 private:
  // Feeds the checker the trace steps logged since its last call (none,
  // between two adds).
  void sync() {
    if (checker_ != nullptr &&
        checker_->watermark() < writer_->proof().size()) {
      checker_->consume(writer_->proof());
    }
  }

  SatEngine& engine_;
  std::unique_ptr<MemoryProofWriter> writer_;
  std::unique_ptr<DratChecker> checker_;
};

}  // namespace berkmin::proof
