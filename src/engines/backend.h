// Incremental-solving backends for the model-checking engines.
//
// The BMC and IC3 engines are written against one small interface —
// variable allocation, clause addition, named clause groups, and
// assumption-based solving — so a single engine implementation can drive
//
//   * a long-lived in-process SatEngine (SolverBackend) — a Solver or a
//     racing PortfolioSolver: push/pop map to the engine's named clause
//     groups, the hot path for benches and the differential suites;
//   * a SolverService incremental session (SessionBackend): every solve is
//     a sliced, preemptible service job, and threads > 1 escalates the
//     session to a warm portfolio — the engines become a real multi-tenant
//     workload for the service.
//
// BMC needs only variables, root clauses and assumption solves; IC3 also
// keeps its frames and scratch queries in clause groups.
//
// SolverBackend sends every clause and group operation through a
// proof::LiveCertifier; over a checking one (engines::certify), each
// UNSAT answer can be confirmed with answer_certified().
//
// Engines treat a backend failure (closed session, refused operation,
// service shutdown) as a structured `unknown` verdict carrying
// last_error(), never UB.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cnf/icnf.h"
#include "cnf/literal.h"
#include "core/sat_engine.h"
#include "engines/transition_system.h"
#include "proof/live_certifier.h"
#include "service/solver_service.h"

namespace berkmin::engines {

class EngineBackend {
 public:
  virtual ~EngineBackend() = default;

  // Reserves n fresh variables, returning the first. Engines address
  // backend variables densely (external numbering).
  virtual Var new_vars(int n) = 0;
  // Adds a clause (to the innermost open group, if any). Returns false on
  // a structured refusal; a root-level conflict is not a refusal.
  virtual bool add_clause(std::span<const Lit> lits) = 0;
  bool add_unit(Lit a) {
    const Lit lits[] = {a};
    return add_clause(lits);
  }
  bool add_binary(Lit a, Lit b) {
    const Lit lits[] = {a, b};
    return add_clause(lits);
  }
  // Named clause groups. push() opens a group and returns its handle
  // (no_group on a structured refusal); groups retract in *any* order:
  // pop(id) retires the named group, pop() the most recent one. Clauses
  // land in the innermost open group by default; add_clause_to targets a
  // specific live group. set_group_active parks a group for subsequent
  // solves without retracting it (an inactive group's clauses are inert).
  virtual GroupId push() = 0;
  virtual bool pop(GroupId id) = 0;
  virtual bool pop() = 0;
  virtual bool add_clause_to(GroupId id, std::span<const Lit> lits) = 0;
  virtual bool set_group_active(GroupId id, bool active) = 0;
  // Solves under assumptions. `unknown` with a non-empty last_error()
  // reports a structured backend failure.
  virtual SolveStatus solve(std::span<const Lit> assumptions,
                            const Budget& budget = Budget::unlimited()) = 0;
  // Valid after a satisfiable solve(); unassigned model values read as
  // the literal's sign-neutral false.
  virtual bool model_value(Lit l) const = 0;
  // Valid after an unsatisfiable solve(): a subset of the caller's
  // assumptions sufficient for the conflict.
  virtual const std::vector<Lit>& failed_assumptions() const = 0;

  virtual std::string name() const = 0;
  const std::string& last_error() const { return error_; }
  // Whether an add that returned `added` was refused: false with
  // last_error() set. False without an error is a root-level conflict,
  // an answer the next solve() reports as UNSAT, not a refusal.
  bool refused(bool added) const { return !added && !error_.empty(); }

 protected:
  std::string error_;
};

// ---- in-process engine ------------------------------------------------

// Drives any SatEngine the caller owns, through one LiveCertifier: a
// pass-through one of its own, or the caller's (checking) one. The engine
// owns the live groups: pop() retires its innermost one, and a stale
// handle is a refusal rather than a root-level conflict.
class SolverBackend final : public EngineBackend {
 public:
  explicit SolverBackend(SatEngine& engine);
  explicit SolverBackend(proof::LiveCertifier& certifier)
      : certifier_(certifier) {}

  Var new_vars(int n) override;
  bool add_clause(std::span<const Lit> lits) override {
    return apply(icnf::Op::clause(lits)).has_value();
  }
  GroupId push() override {
    return apply(icnf::Op::push()).value_or(no_group);
  }
  bool pop(GroupId id) override { return apply(icnf::Op::pop(id)).has_value(); }
  bool pop() override { return apply(icnf::Op::pop()).has_value(); }
  bool add_clause_to(GroupId id, std::span<const Lit> lits) override {
    return apply(icnf::Op::clause_to(id, lits)).has_value();
  }
  bool set_group_active(GroupId id, bool active) override {
    return apply(icnf::Op::set_active(id, active)).has_value();
  }
  SolveStatus solve(std::span<const Lit> assumptions,
                    const Budget& budget) override;
  bool model_value(Lit l) const override;
  const std::vector<Lit>& failed_assumptions() const override;
  std::string name() const override { return "solver"; }

  // Whether the certifier's checker confirms the last UNSAT answer; false
  // without a checking certifier.
  bool answer_certified();

 private:
  // icnf::apply through the certifier; a refusal sets last_error().
  std::optional<GroupId> apply(const icnf::Op& op);
  SatEngine& engine() const { return certifier_.engine(); }

  std::unique_ptr<proof::LiveCertifier> owned_;  // the pass-through one
  proof::LiveCertifier& certifier_;
};

// ---- service session --------------------------------------------------

// Owns one incremental session inside a SolverService. Its clause and
// group operations run under one SolverService::SessionClaim, taken by the
// first operation after a solve() and held until the next solve() or the
// backend's end, so a frame of adds pays for one claim and each add for
// none. While the backend holds it, any other caller's operation on the
// session is refused as busy. Each solve() ends the claim and is a
// SolverService::session_query, which (when the job is the scheduler's
// pick and a slice slot is free) runs the job's slices on the calling
// thread, so an uncontended query wakes no worker.
// The service (and its slots) is shared with whatever else the caller runs
// on it. A session job is limited by conflicts and seconds only, so
// solve() refuses a budget on decisions or propagations (unknown,
// last_error() set).
class SessionBackend final : public EngineBackend {
 public:
  // Fails (last_error set, alive() false) when the service refuses the
  // session — admission under pressure or after shutdown.
  SessionBackend(service::SolverService& service,
                 service::SessionRequest request);
  ~SessionBackend() override;

  bool alive() const { return session_ != service::invalid_session; }

  Var new_vars(int n) override;
  bool add_clause(std::span<const Lit> lits) override {
    return apply(icnf::Op::clause(lits)).has_value();
  }
  GroupId push() override {
    return apply(icnf::Op::push()).value_or(no_group);
  }
  bool pop(GroupId id) override { return apply(icnf::Op::pop(id)).has_value(); }
  bool pop() override { return apply(icnf::Op::pop()).has_value(); }
  bool add_clause_to(GroupId id, std::span<const Lit> lits) override {
    return apply(icnf::Op::clause_to(id, lits)).has_value();
  }
  bool set_group_active(GroupId id, bool active) override {
    return apply(icnf::Op::set_active(id, active)).has_value();
  }
  SolveStatus solve(std::span<const Lit> assumptions,
                    const Budget& budget) override;
  bool model_value(Lit l) const override;
  const std::vector<Lit>& failed_assumptions() const override;
  std::string name() const override;

  const service::JobResult& last_result() const { return result_; }

 private:
  // The op under the backend's claim, claiming the session first when
  // the claim has ended; a refusal sets last_error().
  std::optional<GroupId> apply(const icnf::Op& op);
  service::SolverService& service_;
  service::SessionId session_ = service::invalid_session;
  service::SolverService::SessionClaim claim_;
  int threads_ = 1;
  Var next_var_ = 0;
  service::JobResult result_;
};

// ---- frame instantiation ----------------------------------------------

// One time frame instantiated into a backend: the template's literals
// shifted to fresh backend variables.
struct FrameVars {
  std::vector<Lit> inputs;
  std::vector<Lit> state;
  std::vector<Lit> next;
  Lit bad = undef_lit;
};

// Allocates fresh variables for every template variable and adds the
// frame clauses (into the backend's innermost open group, if any).
// nullopt when the backend refused an add (its last_error() says why).
std::optional<FrameVars> instantiate_frame(EngineBackend& backend,
                                           const FrameTemplate& tmpl);

// Maintains the BMC-style chain of frames: frame 0 is constrained to the
// all-zero initial state; frame t > 0 ties its state inputs to frame
// t-1's next-state literals with equivalence binaries. The chain only
// grows: with no group open, every frame, init units included, lands in
// the backend's root formula.
class FrameStack {
 public:
  FrameStack(const TransitionSystem& ts, EngineBackend& backend)
      : ts_(ts), backend_(backend) {}

  // Instantiates and binds the next frame; nullptr when the backend
  // refused an add (its last_error() says why).
  const FrameVars* extend();

  // Reads the primary-input assignment of every frame out of the
  // backend's model (one vector per cycle, frames 0..depth-1).
  std::vector<std::vector<bool>> model_inputs() const;

 private:
  const TransitionSystem& ts_;
  EngineBackend& backend_;
  std::vector<FrameVars> frames_;
};

}  // namespace berkmin::engines
