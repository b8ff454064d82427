// The solver invariant validator.
#include <gtest/gtest.h>

#include "core/solver.h"
#include "gen/pigeonhole.h"
#include "gen/random_ksat.h"
#include "harness/suites.h"
#include "test_util.h"

namespace berkmin {
namespace {

using testing::make_cnf;

TEST(Invariants, FreshSolverIsConsistent) {
  Solver solver;
  solver.load(make_cnf({{1, 2}, {-1, 3}}));
  EXPECT_EQ(solver.validate_invariants(), "");
}

TEST(Invariants, HoldAfterSolve) {
  Solver solver;
  solver.load(gen::pigeonhole(5));
  solver.solve();
  EXPECT_EQ(solver.validate_invariants(), "");
}

TEST(Invariants, HoldMidSearchAtDecisionLevels) {
  Solver solver;
  solver.load(make_cnf({{-1, 2}, {-2, 3}, {3, 4, 5}}));
  solver.assume(from_dimacs(1));
  ASSERT_EQ(solver.propagate(), no_clause);
  EXPECT_EQ(solver.validate_invariants(), "");
  solver.assume(from_dimacs(-4));
  ASSERT_EQ(solver.propagate(), no_clause);
  EXPECT_EQ(solver.validate_invariants(), "");
}

TEST(Invariants, HoldAfterManualConflictResolution) {
  Solver solver;
  solver.load(make_cnf({{-1, 2}, {-1, -2}}));
  solver.assume(from_dimacs(1));
  const ClauseRef conflict = solver.propagate();
  ASSERT_NE(conflict, no_clause);
  solver.resolve_conflict(conflict);
  ASSERT_EQ(solver.propagate(), no_clause);
  EXPECT_EQ(solver.validate_invariants(), "");
}

TEST(Invariants, HoldAfterRestartAndReduction) {
  SolverOptions options;
  options.restart_policy = RestartPolicy::none;
  Solver solver(options);
  solver.load(gen::pigeonhole(6));
  // Interrupt mid-search, then force a restart + reduction by hand.
  const SolveStatus status = solver.solve(Budget::conflicts(200));
  ASSERT_EQ(status, SolveStatus::unknown);  // pigeonhole(6) needs far more
  solver.restart_now();
  EXPECT_EQ(solver.validate_invariants(), "");
  EXPECT_EQ(solver.stats().reductions, 1u);
  // Restarting a refuted solver must be a harmless no-op.
  ASSERT_EQ(solver.solve(), SolveStatus::unsatisfiable);
  solver.restart_now();
  EXPECT_EQ(solver.validate_invariants(), "");
}

class InvariantSweep : public ::testing::TestWithParam<int> {};

TEST_P(InvariantSweep, HoldAcrossConfigsAndSolves) {
  const auto configs = testing::all_paper_configs();
  const SolverOptions& options =
      configs[static_cast<std::size_t>(GetParam()) % configs.size()];
  const Cnf cnf = gen::random_ksat(25, 105, 3,
                                   static_cast<std::uint64_t>(GetParam()));
  Solver solver(options);
  solver.load(cnf);
  solver.solve(Budget::conflicts(300));
  EXPECT_EQ(solver.validate_invariants(), "") << options.describe();
  solver.solve();  // finish
  EXPECT_EQ(solver.validate_invariants(), "") << options.describe();
}

INSTANTIATE_TEST_SUITE_P(Seeds, InvariantSweep, ::testing::Range(0, 12));

TEST(Invariants, HoldOnStructuredFamilies) {
  for (const harness::Suite& suite : harness::paper_classes(1, 5)) {
    for (const harness::Instance& instance : suite.instances) {
      Solver solver;
      solver.load(instance.cnf);
      solver.solve(Budget::wall_clock(10.0));
      EXPECT_EQ(solver.validate_invariants(), "") << instance.name;
      break;  // one instance per class keeps this test quick
    }
  }
}

}  // namespace
}  // namespace berkmin
