// Restart scheduling and the skin-effect instrumentation (Section 6).
#include <gtest/gtest.h>

#include "core/solver.h"
#include "gen/pigeonhole.h"
#include "test_util.h"

namespace berkmin {
namespace {

TEST(Restart, FixedIntervalFires) {
  SolverOptions options;
  options.restart_interval = 10;
  Solver solver(options);
  solver.load(gen::pigeonhole(5));
  ASSERT_EQ(solver.solve(), SolveStatus::unsatisfiable);
  const SolverStats& stats = solver.stats();
  EXPECT_GT(stats.conflicts, 10u);
  EXPECT_GT(stats.restarts, 0u);
  // Every restart runs a reduction under the BerkMin policy.
  EXPECT_EQ(stats.restarts, stats.reductions);
}

TEST(Restart, NonePolicyNeverRestarts) {
  SolverOptions options;
  options.restart_policy = RestartPolicy::none;
  Solver solver(options);
  solver.load(gen::pigeonhole(5));
  ASSERT_EQ(solver.solve(), SolveStatus::unsatisfiable);
  EXPECT_EQ(solver.stats().restarts, 0u);
}

TEST(Restart, LubyExtensionSolvesCorrectly) {
  SolverOptions options;
  options.restart_policy = RestartPolicy::luby;  // kLubyUnit per unit
  Solver solver(options);
  solver.load(gen::pigeonhole(5));
  EXPECT_EQ(solver.solve(), SolveStatus::unsatisfiable);
  EXPECT_GT(solver.stats().restarts, 0u);
}

TEST(Restart, IntervalControlsFrequency) {
  const auto restarts_with_interval = [](std::uint32_t interval) {
    SolverOptions options;
    options.restart_interval = interval;
    Solver solver(options);
    solver.load(gen::pigeonhole(6));
    solver.solve();
    return solver.stats().restarts;
  };
  EXPECT_GT(restarts_with_interval(10), restarts_with_interval(1000));
}

TEST(SkinEffect, HistogramPopulatedOnHardInstance) {
  Solver solver;  // berkmin defaults
  solver.load(gen::pigeonhole(6));
  ASSERT_EQ(solver.solve(), SolveStatus::unsatisfiable);
  const SolverStats& stats = solver.stats();

  // Decisions made from the conflict-clause stack were recorded.
  EXPECT_GT(stats.top_clause_decisions, 0u);
  std::uint64_t histogram_total = 0;
  for (const std::uint64_t count : stats.skin_histogram) histogram_total += count;
  EXPECT_EQ(histogram_total, stats.top_clause_decisions);
}

TEST(SkinEffect, YoungClausesDominateDecisions) {
  // The paper's Table 3 shape: f(r) decreases with r; the near-top region
  // must hold the bulk of the mass. Aggregate over r in [1, 10] versus
  // r in [11, inf).
  Solver solver;
  solver.load(gen::pigeonhole(7));
  ASSERT_EQ(solver.solve(), SolveStatus::unsatisfiable);
  const auto& hist = solver.stats().skin_histogram;
  std::uint64_t near = 0;
  std::uint64_t far = 0;
  for (std::size_t r = 0; r < hist.size(); ++r) {
    if (r <= 10) {
      near += hist[r];
    } else {
      far += hist[r];
    }
  }
  EXPECT_GT(near, far);
}

TEST(SkinEffect, GlobalDecisionsNotRecorded) {
  // A satisfiable formula with no conflicts: only global decisions, and
  // the histogram stays empty.
  Solver solver;
  solver.load(testing::make_cnf({{1, 2}, {3, 4}, {5, 6}}));
  ASSERT_EQ(solver.solve(), SolveStatus::satisfiable);
  EXPECT_EQ(solver.stats().top_clause_decisions, 0u);
  for (const auto count : solver.stats().skin_histogram) EXPECT_EQ(count, 0u);
}

TEST(SkinEffect, StatsRecordSkinCapsDistance) {
  SolverStats stats;
  stats.record_skin(5);
  stats.record_skin(5);
  stats.record_skin((1 << 20) + 100);  // clamped to the last bucket
  EXPECT_EQ(stats.skin_at(5), 2u);
  EXPECT_EQ(stats.skin_at(1 << 20), 1u);
  EXPECT_EQ(stats.skin_at(123456789), 0u);
}

}  // namespace
}  // namespace berkmin
