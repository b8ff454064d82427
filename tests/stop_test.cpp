// External cancellation: request_stop() / set_external_stop() must make a
// running solve() return unknown promptly without corrupting the solver.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "core/solver.h"
#include "gen/pigeonhole.h"
#include "gen/random_ksat.h"
#include "test_util.h"
#include "util/timer.h"

namespace berkmin {
namespace {

TEST(StopToken, PreRequestedStopCancelsNextSolve) {
  Solver solver;
  solver.load(gen::pigeonhole(7));
  solver.request_stop();
  EXPECT_EQ(solver.solve(), SolveStatus::unknown);

  // The request is sticky until cleared; afterwards the solver is intact
  // and finishes the instance.
  solver.clear_stop();
  EXPECT_EQ(solver.solve(), SolveStatus::unsatisfiable);
}

TEST(StopToken, StopsLongSolvePromptly) {
  Solver solver;
  // hole(10) takes far longer than this test is allowed to: without the
  // stop request the solve would not return for a long time.
  solver.load(gen::pigeonhole(10));

  SolveStatus status = SolveStatus::satisfiable;
  WallTimer timer;
  std::thread solving([&] { status = solver.solve(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  solver.request_stop();
  solving.join();
  const double elapsed = timer.seconds();

  EXPECT_EQ(status, SolveStatus::unknown);
  // "Promptly": the search notices the flag at the next loop iteration.
  // Generous bound so sanitizer builds pass too.
  EXPECT_LT(elapsed, 10.0);
}

TEST(StopToken, ExternalFlagSharedAcrossSolvers) {
  std::atomic<bool> stop{false};
  Solver a;
  Solver b;
  const Cnf cnf = gen::pigeonhole(7);
  a.load(cnf);
  b.load(cnf);
  a.set_external_stop(&stop);
  b.set_external_stop(&stop);

  stop.store(true);
  EXPECT_EQ(a.solve(), SolveStatus::unknown);
  EXPECT_EQ(b.solve(), SolveStatus::unknown);

  stop.store(false);
  EXPECT_EQ(a.solve(), SolveStatus::unsatisfiable);
  EXPECT_EQ(b.solve(), SolveStatus::unsatisfiable);
}

TEST(StopCause, DistinguishesBudgetExpiryFromCancellation) {
  Solver solver;
  solver.load(gen::pigeonhole(8));

  // Budget expiry: resumable — a scheduler may slice again.
  ASSERT_EQ(solver.solve(Budget::conflicts(5)), SolveStatus::unknown);
  EXPECT_EQ(solver.last_stop_cause(), StopCause::conflict_budget);
  EXPECT_TRUE(is_resumable(solver.last_stop_cause()));
  EXPECT_GE(solver.last_slice().conflicts, 1u);
  EXPECT_LE(solver.last_slice().conflicts, 5u);

  ASSERT_EQ(solver.solve(Budget::decisions(3)), SolveStatus::unknown);
  EXPECT_EQ(solver.last_stop_cause(), StopCause::decision_budget);
  EXPECT_TRUE(is_resumable(solver.last_stop_cause()));

  // External stop: a cancellation, not a pause.
  solver.request_stop();
  ASSERT_EQ(solver.solve(), SolveStatus::unknown);
  EXPECT_EQ(solver.last_stop_cause(), StopCause::external_stop);
  EXPECT_FALSE(is_resumable(solver.last_stop_cause()));
  solver.clear_stop();
}

TEST(StopCause, NoneAfterDefinitiveAnswer) {
  Solver solver;
  solver.load(gen::pigeonhole(5));
  ASSERT_EQ(solver.solve(), SolveStatus::unsatisfiable);
  EXPECT_EQ(solver.last_stop_cause(), StopCause::none);
  EXPECT_FALSE(is_resumable(solver.last_stop_cause()));
  EXPECT_GT(solver.last_slice().conflicts, 0u);
}

TEST(StopCause, BudgetsArePerCallNotCumulative) {
  // A preempted job re-entering solve() gets a full fresh slice: the
  // second 50-conflict slice must not be starved by the first one's
  // spending.
  Solver solver;
  solver.load(gen::pigeonhole(8));
  ASSERT_EQ(solver.solve(Budget::conflicts(50)), SolveStatus::unknown);
  const std::uint64_t after_first = solver.stats().conflicts;
  EXPECT_GE(after_first, 50u);
  ASSERT_EQ(solver.solve(Budget::conflicts(50)), SolveStatus::unknown);
  EXPECT_GE(solver.stats().conflicts, after_first + 50u);
  EXPECT_EQ(solver.last_slice().conflicts, solver.stats().conflicts - after_first);
}

TEST(StopToken, StoppedSolverStaysConsistent) {
  Solver solver;
  solver.load(gen::random_ksat(40, 170, 3, 11));

  SolveStatus status = SolveStatus::unknown;
  std::thread solving([&] { status = solver.solve(); });
  solver.request_stop();
  solving.join();

  // Whatever the race decided (stop may land after the answer), the
  // solver's invariants must hold and a re-solve must succeed.
  EXPECT_EQ(solver.validate_invariants(), "");
  solver.clear_stop();
  EXPECT_NE(solver.solve(), SolveStatus::unknown);
}

}  // namespace
}  // namespace berkmin
