// BmcEngine against hand-built circuits with known ground truth, over
// both backends (long-lived Solver, SolverService session), including
// trace validation, certify() of safe bounds, frames unrolled into the
// root formula, and structured failure paths.
#include <gtest/gtest.h>

#include <memory>

#include "core/solver.h"
#include "engines/bmc.h"
#include "engines_test_util.h"
#include "gen/safety.h"
#include "service/solver_service.h"

namespace berkmin::engines {
namespace {

TEST(BmcEngine, FindsCounterexampleAtExactDepth) {
  const TransitionSystem ts(test_circuits::counter(3));
  Solver solver;
  SolverBackend backend(solver);
  BmcEngine engine(ts, backend, {.bound = 10});
  const EngineResult result = engine.run();
  EXPECT_EQ(result.verdict, Verdict::unsafe);
  EXPECT_EQ(result.bound, 7);
  EXPECT_TRUE(result.cex_validated);
  ASSERT_TRUE(result.cex.has_value());
  EXPECT_EQ(result.cex->depth(), 7);
  EXPECT_EQ(result.stats.solves, 8u);      // bounds 0..7
  EXPECT_EQ(result.stats.sat_answers, 1u); // only the last
}

TEST(BmcEngine, ExtractsTheForcedInputTrace) {
  const TransitionSystem ts(test_circuits::shift_chain());
  Solver solver;
  SolverBackend backend(solver);
  BmcEngine engine(ts, backend, {.bound = 5});
  const EngineResult result = engine.run();
  EXPECT_EQ(result.verdict, Verdict::unsafe);
  EXPECT_EQ(result.bound, 2);
  ASSERT_TRUE(result.cex.has_value());
  ASSERT_EQ(result.cex->inputs.size(), 3u);
  // Reaching bad at cycle 2 forces input 1 at cycle 0.
  EXPECT_TRUE(result.cex->inputs[0][0]);
  EXPECT_TRUE(result.cex_validated);
}

TEST(BmcEngine, SafeWithinBoundIsDratCertified) {
  const TransitionSystem ts(test_circuits::counter(3));
  Solver solver;
  SolverBackend backend(solver);
  BmcEngine engine(ts, backend, {.bound = 6});
  EngineResult result = engine.run();
  EXPECT_TRUE(certify(ts, result)) << result.error;
  EXPECT_EQ(result.verdict, Verdict::safe_bounded);
  EXPECT_EQ(result.bound, 6);
  EXPECT_TRUE(result.certified) << result.error;
  EXPECT_FALSE(result.cex.has_value());
}

TEST(BmcEngine, UnreachableBadStaysSafeAndCertified) {
  const TransitionSystem ts(test_circuits::safe_ring());
  Solver solver;
  SolverBackend backend(solver);
  BmcEngine engine(ts, backend, {.bound = 12});
  EngineResult result = engine.run();
  EXPECT_TRUE(certify(ts, result)) << result.error;
  EXPECT_EQ(result.verdict, Verdict::safe_bounded);
  EXPECT_TRUE(result.certified) << result.error;
}

TEST(BmcEngine, LatchFreeSystems) {
  {
    const TransitionSystem ts(test_circuits::latch_free(true));
    Solver solver;
    SolverBackend backend(solver);
    const EngineResult result = BmcEngine(ts, backend, {.bound = 4}).run();
    EXPECT_EQ(result.verdict, Verdict::unsafe);
    EXPECT_EQ(result.bound, 0);
    EXPECT_TRUE(result.cex_validated);
  }
  {
    const TransitionSystem ts(test_circuits::latch_free(false));
    Solver solver;
    SolverBackend backend(solver);
    EngineResult result = BmcEngine(ts, backend, {.bound = 4}).run();
    EXPECT_TRUE(certify(ts, result)) << result.error;
    EXPECT_EQ(result.verdict, Verdict::safe_bounded);
    EXPECT_TRUE(result.certified) << result.error;
  }
}

TEST(BmcEngine, FramesLiveInTheRootFormula) {
  // Frames are never retracted, so BMC opens no clause group: each query
  // assumes only its bad literal.
  const TransitionSystem ts(test_circuits::counter(3));
  Solver solver;
  SolverBackend backend(solver);
  const EngineResult result = BmcEngine(ts, backend, {.bound = 4}).run();
  EXPECT_EQ(result.verdict, Verdict::safe_bounded);
  EXPECT_EQ(result.stats.frames, 5u);
  EXPECT_EQ(solver.num_groups(), 0);
  EXPECT_EQ(result.stats.pushes, 0u);
  EXPECT_EQ(result.stats.pops, 0u);
}

TEST(BmcEngine, SessionBackendMatchesSolverBackend) {
  const TransitionSystem ts(test_circuits::counter(3));
  service::SolverService service({.num_workers = 2, .slice_conflicts = 100});
  SessionBackend backend(service, {.name = "bmc"});
  ASSERT_TRUE(backend.alive());
  BmcEngine engine(ts, backend, {.bound = 10});
  const EngineResult result = engine.run();
  EXPECT_EQ(result.verdict, Verdict::unsafe);
  EXPECT_EQ(result.bound, 7);
  EXPECT_TRUE(result.cex_validated);
}

TEST(BmcEngine, SessionBackendSafeBoundCertified) {
  const TransitionSystem ts(test_circuits::safe_ring());
  service::SolverService service({.num_workers = 2});
  SessionBackend backend(service, {.name = "bmc-safe"});
  ASSERT_TRUE(backend.alive());
  BmcEngine engine(ts, backend, {.bound = 8});
  EngineResult result = engine.run();
  EXPECT_TRUE(certify(ts, result)) << result.error;
  EXPECT_EQ(result.verdict, Verdict::safe_bounded);
  EXPECT_TRUE(result.certified) << result.error;
}

TEST(BmcEngine, ClosedSessionIsAStructuredFailure) {
  const TransitionSystem ts(test_circuits::counter(3));
  service::SolverService service({.num_workers = 1});
  auto backend = std::make_unique<SessionBackend>(
      service, service::SessionRequest{.name = "doomed"});
  ASSERT_TRUE(backend->alive());
  // Shut the service down under the engine's feet: every later operation
  // must surface as Verdict::unknown with an error, never UB.
  service.shutdown();
  BmcEngine engine(ts, *backend, {.bound = 3});
  const EngineResult result = engine.run();
  EXPECT_EQ(result.verdict, Verdict::unknown);
  EXPECT_FALSE(result.error.empty());
}

TEST(BmcEngine, BlownBudgetIsUnknownNotWrong) {
  // A nondeterministic system: reaching the counterexample needs input
  // decisions, so a one-decision budget must trip before any SAT answer.
  gen::SafetyParams params;
  params.safe = false;
  const TransitionSystem ts = gen::safety_system(params);
  Solver solver;
  SolverBackend backend(solver);
  BmcOptions options;
  options.bound = params.cycles;
  options.query_budget.max_decisions = 1;
  const EngineResult result = BmcEngine(ts, backend, options).run();
  EXPECT_EQ(result.verdict, Verdict::unknown);
  EXPECT_NE(result.error.find("unresolved"), std::string::npos) << result.error;
}

TEST(BmcEngine, SessionRefusesABudgetItCannotEnforce) {
  // A session job counts only conflicts and seconds: the same one-decision
  // budget must end unknown with a reason, never as an answer that
  // overran it.
  gen::SafetyParams params;
  params.safe = false;
  const TransitionSystem ts = gen::safety_system(params);
  service::SolverService service({.num_workers = 1});
  SessionBackend backend(service, {.name = "bmc-budget"});
  ASSERT_TRUE(backend.alive());
  BmcOptions options;
  options.bound = params.cycles;
  options.query_budget.max_decisions = 1;
  const EngineResult result = BmcEngine(ts, backend, options).run();
  EXPECT_EQ(result.verdict, Verdict::unknown);
  EXPECT_FALSE(backend.last_error().empty());
  EXPECT_NE(result.error.find("decision"), std::string::npos) << result.error;
}

}  // namespace
}  // namespace berkmin::engines
