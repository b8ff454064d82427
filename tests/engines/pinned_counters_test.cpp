// Search counters pinned: BMC (bound 8) and IC3 over twelve safety systems
// through proof-checked SolverService sessions, the path the
// certified-session benchmark measures, must search exactly as before. A
// change to how the session adds clauses, answers queries or certifies
// them must leave the search alone, and this test sees a change to it as
// a change in the summed propagations, conflicts, decisions or solve
// calls. A change that means to alter the search updates the pinned
// values and says so.
#include <gtest/gtest.h>

#include <cstdint>

#include "engines/bmc.h"
#include "engines/ic3.h"
#include "gen/safety.h"
#include "service/solver_service.h"

namespace berkmin::engines {
namespace {

// What the search did over every query of a session: the work the service
// reports per answer, and the number of answers.
struct SearchCounters {
  std::uint64_t propagations = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t decisions = 0;
  std::uint64_t solve_calls = 0;
  int uncertified = 0;  // UNSAT answers the live checker did not certify
};

// Forwards to a SessionBackend and adds up its answers' counters.
class CountingBackend final : public EngineBackend {
 public:
  CountingBackend(SessionBackend& session, SearchCounters& counters)
      : session_(session), counters_(counters) {}

  Var new_vars(int n) override { return session_.new_vars(n); }
  bool add_clause(std::span<const Lit> lits) override {
    return mirror(session_.add_clause(lits));
  }
  GroupId push() override {
    const GroupId id = session_.push();
    error_ = session_.last_error();
    return id;
  }
  bool pop(GroupId id) override { return mirror(session_.pop(id)); }
  bool pop() override { return mirror(session_.pop()); }
  bool add_clause_to(GroupId id, std::span<const Lit> lits) override {
    return mirror(session_.add_clause_to(id, lits));
  }
  bool set_group_active(GroupId id, bool active) override {
    return mirror(session_.set_group_active(id, active));
  }
  SolveStatus solve(std::span<const Lit> assumptions,
                    const Budget& budget) override {
    const SolveStatus status = session_.solve(assumptions, budget);
    error_ = session_.last_error();
    const service::JobResult& result = session_.last_result();
    counters_.propagations += result.propagations;
    counters_.conflicts += result.conflicts;
    counters_.decisions += result.decisions;
    ++counters_.solve_calls;
    if (status == SolveStatus::unsatisfiable &&
        !(result.proof_checked && result.proof_valid)) {
      ++counters_.uncertified;
    }
    return status;
  }
  bool model_value(Lit l) const override { return session_.model_value(l); }
  const std::vector<Lit>& failed_assumptions() const override {
    return session_.failed_assumptions();
  }
  std::string name() const override { return session_.name(); }

 private:
  bool mirror(bool ok) {
    error_ = session_.last_error();
    return ok;
  }

  SessionBackend& session_;
  SearchCounters& counters_;
};

// The certified-session benchmark's family mix, smaller: safe, unsafe and
// latch-heavy systems in turn.
gen::SafetyParams system_params(int index) {
  gen::SafetyParams p;
  p.seed = static_cast<std::uint64_t>(index);
  p.cycles = 8;
  switch (index % 3) {
    case 0:
      p.safe = true;
      p.num_latches = 10;
      p.num_inputs = 4;
      p.num_gates = 60;
      break;
    case 1:
      p.safe = false;
      p.num_latches = 10;
      p.num_inputs = 4;
      p.num_gates = 60;
      break;
    default:
      p.safe = true;
      p.latch_heavy = true;
      p.num_latches = 12;
      p.num_inputs = 3;
      break;
  }
  return p;
}

TEST(PinnedSearchCounters, BmcAndIc3OverProofCheckedSessions) {
  service::SolverService service({.num_workers = 1});
  service::SessionRequest request;
  request.proof.log = true;
  request.proof.check = true;
  SearchCounters counters;
  for (int i = 0; i < 12; ++i) {
    const gen::SafetyParams params = system_params(i);
    SCOPED_TRACE("system " + std::to_string(i));
    const TransitionSystem ts = gen::safety_system(params);
    for (const bool bmc : {true, false}) {
      SessionBackend session(service, request);
      ASSERT_TRUE(session.alive()) << session.last_error();
      CountingBackend backend(session, counters);
      const EngineResult result =
          bmc ? BmcEngine(ts, backend, {.bound = params.cycles}).run()
              : Ic3Engine(ts, backend).run();
      EXPECT_NE(result.verdict, Verdict::unknown) << result.error;
    }
  }
  EXPECT_EQ(counters.uncertified, 0);
  // The search as it stands; a change meant to alter it updates these.
  EXPECT_EQ(counters.propagations, 7431u);
  EXPECT_EQ(counters.conflicts, 47u);
  EXPECT_EQ(counters.decisions, 686u);
  EXPECT_EQ(counters.solve_calls, 172u);
}

}  // namespace
}  // namespace berkmin::engines
