// Ic3Engine against hand-built circuits with known ground truth:
// counterexample traces that replay through simulation, inductive
// invariants re-checked by certify(), delta-frame /
// activation-literal bookkeeping, and the push/pop (selector pressure)
// discipline the engine imposes on the incremental layer.
#include <gtest/gtest.h>

#include <memory>

#include "core/solver.h"
#include "engines/bmc.h"
#include "engines/engine.h"
#include "engines/ic3.h"
#include "engines_test_util.h"
#include "gen/safety.h"
#include "service/solver_service.h"

namespace berkmin::engines {
namespace {

TEST(Ic3Engine, CounterIsUnsafeAtExactDepth) {
  const TransitionSystem ts(test_circuits::counter(3));
  Solver solver;
  SolverBackend backend(solver);
  Ic3Engine engine(ts, backend);
  const EngineResult result = engine.run();
  EXPECT_EQ(result.verdict, Verdict::unsafe);
  EXPECT_TRUE(result.cex_validated);
  ASSERT_TRUE(result.cex.has_value());
  // The counter is deterministic: the only counterexample has depth 7.
  EXPECT_EQ(result.cex->depth(), 7);
  EXPECT_GT(result.stats.obligations, 0u);
}

TEST(Ic3Engine, ChainCounterexampleCarriesTheForcingInput) {
  const TransitionSystem ts(test_circuits::shift_chain());
  Solver solver;
  SolverBackend backend(solver);
  const EngineResult result = Ic3Engine(ts, backend).run();
  EXPECT_EQ(result.verdict, Verdict::unsafe);
  EXPECT_TRUE(result.cex_validated);
  ASSERT_TRUE(result.cex.has_value());
  EXPECT_EQ(result.cex->depth(), 2);
  EXPECT_TRUE(result.cex->inputs[0][0]);
}

TEST(Ic3Engine, SafeRingYieldsCertifiedInvariant) {
  const TransitionSystem ts(test_circuits::safe_ring());
  Solver solver;
  SolverBackend backend(solver);
  Ic3Engine engine(ts, backend);
  EngineResult result = engine.run();
  EXPECT_TRUE(certify(ts, result)) << result.error;
  EXPECT_EQ(result.verdict, Verdict::safe_invariant);
  EXPECT_TRUE(result.certified) << result.error;
  EXPECT_FALSE(result.cex.has_value());
}

TEST(Ic3Engine, LatchFreeSystems) {
  {
    const TransitionSystem ts(test_circuits::latch_free(true));
    Solver solver;
    SolverBackend backend(solver);
    const EngineResult result = Ic3Engine(ts, backend).run();
    EXPECT_EQ(result.verdict, Verdict::unsafe);
    EXPECT_TRUE(result.cex_validated);
    EXPECT_EQ(result.cex->depth(), 0);
  }
  {
    const TransitionSystem ts(test_circuits::latch_free(false));
    Solver solver;
    SolverBackend backend(solver);
    EngineResult result = Ic3Engine(ts, backend).run();
    EXPECT_TRUE(certify(ts, result)) << result.error;
    EXPECT_EQ(result.verdict, Verdict::safe_invariant);
    EXPECT_EQ(result.bound, 0);
    EXPECT_TRUE(result.certified) << result.error;
    EXPECT_TRUE(result.invariant.empty());
  }
}

TEST(Ic3Engine, InvariantClausesExcludeInitAndBad) {
  const TransitionSystem ts(test_circuits::safe_ring());
  Solver solver;
  SolverBackend backend(solver);
  const EngineResult result = Ic3Engine(ts, backend).run();
  ASSERT_EQ(result.verdict, Verdict::safe_invariant);
  // Every clause must be satisfied by the all-zero initial state: at
  // least one literal asserting "latch j is 0".
  for (const auto& clause : result.invariant) {
    bool init_satisfies = false;
    for (const Lit l : clause) init_satisfies |= l.is_negative();
    EXPECT_TRUE(init_satisfies);
  }
}

TEST(Ic3Engine, PushPopDisciplineStaysBalanced) {
  const TransitionSystem ts(test_circuits::safe_ring());
  Solver solver;
  SolverBackend backend(solver);
  Ic3Engine engine(ts, backend);
  const EngineResult result = engine.run();
  EXPECT_EQ(result.verdict, Verdict::safe_invariant);
  // Zero net group growth per blocking/generalization check: every
  // temporary ¬cube scratch group was retired, so only the named
  // per-frame groups are live at the end of the run.
  EXPECT_EQ(result.stats.pushes, result.stats.pops + result.stats.frames);
  EXPECT_EQ(solver.num_groups(), static_cast<int>(result.stats.frames));
  // Zero net *variable* growth too: the scratch cycles were served from
  // the selector free-list (recycled), so the solver's internal width
  // exceeds the external formula by at most the live frame groups plus
  // the deepest scratch nesting (outer predecessor query + one
  // generalization query), never by one selector per check.
  EXPECT_GT(solver.stats().selectors_recycled, 0u);
  EXPECT_LE(solver.free_selector_count(), 2u);
  EXPECT_EQ(solver.num_internal_vars() - solver.num_vars(),
            solver.num_groups() + static_cast<int>(solver.free_selector_count()));
  EXPECT_EQ(solver.solve(), SolveStatus::satisfiable);
}

TEST(Ic3Engine, FrameLimitIsAStructuredUnknown) {
  const TransitionSystem ts(test_circuits::safe_ring());
  Solver solver;
  SolverBackend backend(solver);
  const EngineResult result = Ic3Engine(ts, backend, {.max_frames = 0}).run();
  EXPECT_EQ(result.verdict, Verdict::unknown);
  EXPECT_NE(result.error.find("max_frames"), std::string::npos) << result.error;
}

TEST(Ic3Engine, SessionBackendMatchesSolverBackend) {
  service::SolverService service({.num_workers = 2, .slice_conflicts = 100});
  {
    const TransitionSystem ts(test_circuits::counter(3));
    SessionBackend backend(service, {.name = "ic3-cex"});
    ASSERT_TRUE(backend.alive());
    const EngineResult result = Ic3Engine(ts, backend).run();
    EXPECT_EQ(result.verdict, Verdict::unsafe);
    EXPECT_TRUE(result.cex_validated);
    EXPECT_EQ(result.cex->depth(), 7);
  }
  {
    const TransitionSystem ts(test_circuits::safe_ring());
    SessionBackend backend(service, {.name = "ic3-inv"});
    ASSERT_TRUE(backend.alive());
    EngineResult result = Ic3Engine(ts, backend).run();
    EXPECT_TRUE(certify(ts, result)) << result.error;
    EXPECT_EQ(result.verdict, Verdict::safe_invariant);
    EXPECT_TRUE(result.certified) << result.error;
  }
}

TEST(Ic3Engine, ClosedSessionIsAStructuredFailure) {
  const TransitionSystem ts(test_circuits::counter(3));
  service::SolverService service({.num_workers = 1});
  auto backend = std::make_unique<SessionBackend>(
      service, service::SessionRequest{.name = "doomed"});
  ASSERT_TRUE(backend->alive());
  service.shutdown();
  const EngineResult result = Ic3Engine(ts, *backend).run();
  EXPECT_EQ(result.verdict, Verdict::unknown);
  EXPECT_FALSE(result.error.empty());
}

// Forwards to another backend, except that after the first `allowed`
// operations of its kind it refuses every push, refuses every clause add,
// or forwards every add but reports it as a root-level conflict (false
// without an error).
class Misbehaving final : public EngineBackend {
 public:
  enum class Op { refuse_push, refuse_add, conflict_add };
  Misbehaving(EngineBackend& inner, Op op, int allowed = 0)
      : inner_(inner), op_(op), allowed_(allowed) {}

  Var new_vars(int n) override { return inner_.new_vars(n); }
  bool add_clause(std::span<const Lit> lits) override {
    return !refuse(Op::refuse_add) && added(inner_.add_clause(lits));
  }
  GroupId push() override {
    return refuse(Op::refuse_push) ? no_group : inner_.push();
  }
  bool pop(GroupId id) override { return inner_.pop(id); }
  bool pop() override { return inner_.pop(); }
  bool add_clause_to(GroupId id, std::span<const Lit> lits) override {
    return !refuse(Op::refuse_add) && added(inner_.add_clause_to(id, lits));
  }
  bool set_group_active(GroupId id, bool active) override {
    return inner_.set_group_active(id, active);
  }
  SolveStatus solve(std::span<const Lit> assumptions,
                    const Budget& budget) override {
    return inner_.solve(assumptions, budget);
  }
  bool model_value(Lit l) const override { return inner_.model_value(l); }
  const std::vector<Lit>& failed_assumptions() const override {
    return inner_.failed_assumptions();
  }
  std::string name() const override { return "misbehaving"; }

 private:
  bool refuse(Op op) {
    if (op != op_ || allowed_-- > 0) return false;
    error_ = op == Op::refuse_push ? "push refused" : "add refused";
    return true;
  }
  bool added(bool ok) const { return op_ != Op::conflict_add && ok; }

  EngineBackend& inner_;
  Op op_;
  int allowed_;
};

gen::SafetyParams refusal_params(bool latch_heavy) {
  gen::SafetyParams params;
  params.safe = true;
  params.latch_heavy = latch_heavy;
  params.seed = 0;
  params.num_latches = 8;
  params.num_inputs = 3;
  params.cycles = 10;
  return params;
}

TEST(Ic3Engine, RefusedPushIsAStructuredFailure) {
  // A refused push, wherever it lands (a frame group or a scratch group),
  // must end the run with an error, never stall the frontier. The plain
  // system closes after three pushes (the third opens frame 2); the
  // latch-heavy one also pushes scratch groups.
  for (const bool latch_heavy : {false, true}) {
    const TransitionSystem ts = gen::safety_system(refusal_params(latch_heavy));
    for (int allowed = 0; allowed < 16; ++allowed) {
      SCOPED_TRACE("latch_heavy=" + std::to_string(latch_heavy) +
                   " pushes allowed: " + std::to_string(allowed));
      Solver solver;
      SolverBackend inner(solver);
      Misbehaving backend(inner, Misbehaving::Op::refuse_push, allowed);
      const EngineResult result = Ic3Engine(ts, backend).run();
      if (result.verdict == Verdict::unknown) {
        EXPECT_NE(result.error.find("push refused"), std::string::npos)
            << result.error;
      } else {
        EXPECT_EQ(result.verdict, Verdict::safe_invariant);
      }
    }
  }
}

// A refused clause add, wherever it lands (the transition relation, the
// initial state, a query's blocker or a blocked cube), ends the run with
// the backend's error; an invariant never names a clause the solver was
// refused. Counts sweep every add site of both systems' runs.
TEST(Ic3Engine, RefusedAddIsAStructuredFailure) {
  for (const bool latch_heavy : {false, true}) {
    const TransitionSystem ts = gen::safety_system(refusal_params(latch_heavy));
    Solver reference_solver;
    SolverBackend reference(reference_solver);
    const EngineResult expected = Ic3Engine(ts, reference).run();
    ASSERT_EQ(expected.verdict, Verdict::safe_invariant);
    const int frame_clauses = static_cast<int>(ts.frame().cnf.num_clauses());
    const int total =
        frame_clauses + static_cast<int>(expected.stats.clauses_added) +
        ts.num_latches();
    int failures = 0;
    for (int allowed = 0; allowed <= total; ++allowed) {
      SCOPED_TRACE("latch_heavy=" + std::to_string(latch_heavy) +
                   " adds allowed: " + std::to_string(allowed));
      Solver solver;
      SolverBackend inner(solver);
      Misbehaving backend(inner, Misbehaving::Op::refuse_add, allowed);
      EngineResult result = Ic3Engine(ts, backend).run();
      if (result.verdict == Verdict::unknown) {
        ++failures;
        EXPECT_NE(result.error.find("add refused"), std::string::npos)
            << result.error;
        EXPECT_TRUE(result.invariant.empty());
      } else {
        EXPECT_EQ(result.verdict, Verdict::safe_invariant);
        EXPECT_TRUE(certify(ts, result)) << result.error;
      }
    }
    EXPECT_GT(failures, frame_clauses);
  }
}

TEST(BmcEngine, RefusedAddIsAStructuredFailure) {
  const TransitionSystem ts = gen::safety_system(refusal_params(false));
  const BmcOptions options{.bound = 3};
  Solver reference_solver;
  SolverBackend reference(reference_solver);
  ASSERT_EQ(BmcEngine(ts, reference, options).run().verdict,
            Verdict::safe_bounded);
  // Each frame adds its template plus one unit or two binaries per latch.
  const int per_frame = static_cast<int>(ts.frame().cnf.num_clauses()) +
                        2 * ts.num_latches();
  for (int allowed = 0; allowed <= 4 * per_frame; ++allowed) {
    SCOPED_TRACE("adds allowed: " + std::to_string(allowed));
    Solver solver;
    SolverBackend inner(solver);
    Misbehaving backend(inner, Misbehaving::Op::refuse_add, allowed);
    const EngineResult result = BmcEngine(ts, backend, options).run();
    if (result.verdict == Verdict::unknown) {
      EXPECT_NE(result.error.find("add refused"), std::string::npos)
          << result.error;
      EXPECT_LE(result.bound, 3);
    } else {
      EXPECT_EQ(result.verdict, Verdict::safe_bounded);
    }
  }
}

TEST(Ic3Engine, FalseAddWithoutAnErrorIsNotARefusal) {
  const TransitionSystem ts = gen::safety_system(refusal_params(true));
  Solver plain_solver;
  SolverBackend plain(plain_solver);
  const EngineResult expected = Ic3Engine(ts, plain).run();
  Solver solver;
  SolverBackend inner(solver);
  Misbehaving backend(inner, Misbehaving::Op::conflict_add);
  const EngineResult result = Ic3Engine(ts, backend).run();
  EXPECT_EQ(result.verdict, expected.verdict) << result.error;
  EXPECT_EQ(result.invariant, expected.invariant);
  EXPECT_EQ(result.stats.clauses_added, expected.stats.clauses_added);
  Solver bmc_solver;
  SolverBackend bmc_inner(bmc_solver);
  Misbehaving bmc_backend(bmc_inner, Misbehaving::Op::conflict_add);
  const EngineResult bmc = BmcEngine(ts, bmc_backend, {.bound = 3}).run();
  EXPECT_EQ(bmc.verdict, Verdict::safe_bounded) << bmc.error;
}

}  // namespace
}  // namespace berkmin::engines
