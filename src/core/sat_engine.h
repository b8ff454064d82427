// One solving surface over every engine: the sequential BerkMin Solver and
// the racing portfolio::PortfolioSolver both implement SatEngine, so a
// consumer (the service, the CLI, the experiment harness) holds one engine
// and never branches on which kind it was given. Engines are built — and
// configured: options, thread count, memory budget — by one factory,
// portfolio::make_engine; this interface carries what every consumer does
// with a built engine, proof logging included: a consumer attaches one
// proof::ProofWriter with set_proof and reads the trace back from it,
// whichever engine ran.
//
// Typical use:
//   std::unique_ptr<SatEngine> engine = portfolio::make_engine(options, 1);
//   engine->load(cnf);
//   if (engine->solve_with_assumptions({}, Budget::conflicts(1000)) ==
//       SolveStatus::satisfiable)
//     use(engine->model());
#pragma once

#include <span>
#include <vector>

#include "cnf/cnf_formula.h"
#include "cnf/literal.h"
#include "core/solver_types.h"

namespace berkmin {

namespace proof {
class ProofWriter;
}
namespace telemetry {
struct SolverTelemetry;
}

class SatEngine {
 public:
  SatEngine() = default;
  SatEngine(const SatEngine&) = delete;
  SatEngine& operator=(const SatEngine&) = delete;
  virtual ~SatEngine() = default;

  // ---- problem construction ---------------------------------------------
  // Creates one fresh variable and returns it.
  virtual Var new_var() = 0;
  // Both return false once the formula is known unsatisfiable at the root.
  virtual bool load(const Cnf& cnf) = 0;
  virtual bool add_clause(std::span<const Lit> lits) = 0;

  // ---- named clause groups (see Solver::push_group) -----------------------
  // push_group returns no_group when the engine refuses groups (a
  // proof-logging portfolio); the others return false for a dead handle.
  virtual GroupId push_group() = 0;
  virtual bool pop_group(GroupId id) = 0;
  virtual bool add_clause_to_group(GroupId id, std::span<const Lit> lits) = 0;
  virtual bool set_group_active(GroupId id, bool active) = 0;
  // The engine is the only owner of its live groups; consumers (the
  // service, proof::LiveCertifier, the model-checking backends) ask it
  // instead of mirroring the list. innermost_group is the most recently
  // pushed live group (no_group when none): where add_clause lands.
  virtual bool group_is_live(GroupId id) const = 0;
  virtual GroupId innermost_group() const = 0;
  virtual int num_groups() const = 0;

  // ---- solving ----------------------------------------------------------
  // Budgets are per call; an unknown answer within budget is resumable.
  virtual SolveStatus solve_with_assumptions(
      std::span<const Lit> assumptions,
      const Budget& budget = Budget::unlimited()) = 0;
  // Thread-safe and sticky: a stop requested before a solve cancels it,
  // and every later solve answers unknown until clear_stop().
  virtual void request_stop() = 0;
  virtual void clear_stop() = 0;

  // ---- results of the last solve ------------------------------------------
  virtual const std::vector<Value>& model() const = 0;
  virtual const std::vector<Lit>& failed_assumptions() const = 0;
  // Work done by the last call only (a portfolio sums its workers' calls).
  virtual const SliceStats& last_slice() const = 0;
  // Statistics behind the answer: the solver's cumulative counters, or the
  // portfolio winner's with the exchange counters summed over workers.
  virtual const SolverStats& stats() const = 0;
  // The race behind the last answer (see RaceReport). A single solver runs
  // none: its report has no workers.
  virtual const RaceReport& race() const {
    static const RaceReport none;
    return none;
  }

  // Attaches the writer that receives the engine's DRAT trace (nullptr
  // detaches); attach it before the first solve, and keep it alive across
  // the solves. A Solver streams each step as it searches; a portfolio
  // replays its spliced trace once a solve refutes the formula (UNSAT with
  // no failed assumptions). The trace checks against the loaded formula.
  virtual void set_proof(proof::ProofWriter* writer) = 0;

  // Attaches a telemetry sink for the following solves (nullptr detaches).
  // A portfolio ignores it: its workers own their sinks.
  virtual void set_telemetry(const telemetry::SolverTelemetry* sink) = 0;
};

}  // namespace berkmin
