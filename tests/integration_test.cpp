// End-to-end integration: every paper preset and ablation solves every
// benchmark family correctly at smoke scale, with model validation on SAT
// and expectation checks throughout.
#include <gtest/gtest.h>

#include "core/solver.h"
#include "harness/runner.h"
#include "harness/suites.h"
#include "test_util.h"

namespace berkmin {
namespace {

class AllConfigsAllFamilies : public ::testing::TestWithParam<int> {};

TEST_P(AllConfigsAllFamilies, SmokeScaleSuitesSolveCorrectly) {
  const auto configs = testing::all_paper_configs();
  const SolverOptions& options = configs[static_cast<std::size_t>(GetParam())];

  for (const harness::Suite& suite : harness::paper_classes(1, 3)) {
    const harness::ClassResult result =
        harness::run_suite(suite, options, /*timeout=*/60.0);
    EXPECT_EQ(result.wrong, 0)
        << suite.name << " with " << options.describe();
    EXPECT_EQ(result.aborted, 0)
        << suite.name << " timed out with " << options.describe();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, AllConfigsAllFamilies,
    ::testing::Range(0, static_cast<int>(testing::all_paper_configs().size())));

TEST(Integration, SkinEffectInstancesSolve) {
  for (const harness::Instance& instance : harness::skin_effect_instances(1, 3)) {
    const harness::RunResult result =
        harness::run_instance(instance, SolverOptions::berkmin(), 60.0);
    EXPECT_FALSE(result.timed_out) << instance.name;
    EXPECT_FALSE(result.expectation_violated) << instance.name;
  }
}

TEST(Integration, ExtensionsSolveTheSuites) {
  // The beyond-paper features (minimization, Luby restarts, widened top-
  // clause window) must preserve correctness on every family.
  SolverOptions extended = SolverOptions::berkmin();
  extended.minimize_learned = true;
  extended.restart_policy = RestartPolicy::luby;  // kLubyUnit per unit
  extended.top_clause_window = 3;

  for (const harness::Suite& suite : harness::paper_classes(1, 9)) {
    const harness::ClassResult result =
        harness::run_suite(suite, extended, /*timeout=*/60.0);
    EXPECT_EQ(result.wrong, 0) << suite.name;
    EXPECT_EQ(result.aborted, 0) << suite.name;
  }
}

}  // namespace
}  // namespace berkmin
