// The subsumption / self-subsumption preprocessor and CNF statistics.
#include <gtest/gtest.h>

#include "cnf/cnf_stats.h"
#include "cnf/preprocess.h"
#include "core/solver.h"
#include "gen/pigeonhole.h"
#include "gen/random_ksat.h"
#include "reference/brute_force.h"
#include "test_util.h"

namespace berkmin {
namespace {

using testing::lits;
using testing::make_cnf;

TEST(Preprocess, RemovesSubsumedClauses) {
  // (1 2) subsumes (1 2 3) and (1 2 4).
  const Cnf cnf = make_cnf({{1, 2}, {1, 2, 3}, {1, 2, 4}});
  const PreprocessResult result = preprocess(cnf);
  EXPECT_FALSE(result.unsat);
  EXPECT_EQ(result.removed_subsumed, 2u);
  EXPECT_EQ(result.cnf.num_clauses(), 1u);
}

TEST(Preprocess, RemovesDuplicates) {
  const Cnf cnf = make_cnf({{1, 2}, {2, 1}, {1, 2}});
  const PreprocessResult result = preprocess(cnf);
  EXPECT_EQ(result.cnf.num_clauses(), 1u);
}

TEST(Preprocess, SelfSubsumptionStrengthens) {
  // (1 2) and (-1 2 3): resolving on 1 gives (2 3) ⊂ (-1 2 3)... the
  // precise effect: (1 2) self-subsumes (-1 2 3)? (1 2)\{1} = {2} ⊆
  // {2 3} = (-1 2 3)\{-1}, so -1 is deleted, leaving (2 3).
  const Cnf cnf = make_cnf({{1, 2}, {-1, 2, 3}});
  const PreprocessResult result = preprocess(cnf);
  EXPECT_GE(result.strengthened_literals, 1u);
  bool found = false;
  for (const auto& clause : result.cnf.clauses()) {
    if (clause == lits({2, 3})) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Preprocess, PropagatesUnits) {
  const Cnf cnf = make_cnf({{1}, {-1, 2}, {-2, 3, 4}});
  const PreprocessResult result = preprocess(cnf);
  EXPECT_GE(result.propagated_units, 2u);
  // The units stay as unit clauses; (-1 2) and (-2 3 4) reduce to (3 4).
  ASSERT_EQ(result.cnf.num_clauses(), 3u);
  EXPECT_EQ(result.cnf.clause(0), lits({1}));
  EXPECT_EQ(result.cnf.clause(1), lits({2}));
  EXPECT_EQ(result.cnf.clause(2), lits({3, 4}));
}

TEST(Preprocess, EveryModelOfTheReducedFormulaSatisfiesTheInput) {
  // Small random formulas seeded with units: enumerate every assignment
  // and require that each model of result.cnf is a model of the input.
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    Cnf cnf = gen::random_ksat(10, 20, 3, seed + 300);
    cnf.add_clause(lits({static_cast<int>(seed % 10) + 1}));
    cnf.add_clause(lits({-(static_cast<int>((seed + 3) % 10) + 1), 5}));
    const PreprocessResult result = preprocess(cnf);
    if (result.unsat) {
      EXPECT_FALSE(reference::brute_force_satisfiable(cnf)) << "seed " << seed;
      continue;
    }
    ASSERT_EQ(result.cnf.num_vars(), cnf.num_vars());
    std::vector<Value> assignment(static_cast<std::size_t>(cnf.num_vars()));
    for (std::uint32_t bits = 0; bits < (1u << cnf.num_vars()); ++bits) {
      for (Var v = 0; v < cnf.num_vars(); ++v) {
        assignment[static_cast<std::size_t>(v)] = to_value((bits >> v) & 1);
      }
      if (result.cnf.is_satisfied_by(assignment)) {
        ASSERT_TRUE(cnf.is_satisfied_by(assignment))
            << "seed " << seed << " assignment " << bits;
      }
    }
  }
}

TEST(Preprocess, DetectsUnsat) {
  const Cnf cnf = make_cnf({{1}, {-1, 2}, {-2}});
  EXPECT_TRUE(preprocess(cnf).unsat);
}

TEST(Preprocess, DropsTautologies) {
  const Cnf cnf = make_cnf({{1, -1, 2}, {3, 4}});
  EXPECT_EQ(preprocess(cnf).cnf.num_clauses(), 1u);
}

TEST(Preprocess, OptionsDisableStages) {
  const Cnf cnf = make_cnf({{1, 2}, {1, 2, 3}});
  PreprocessOptions options;
  options.subsumption = false;
  options.self_subsumption = false;
  const PreprocessResult result = preprocess(cnf, options);
  EXPECT_EQ(result.removed_subsumed, 0u);
  EXPECT_EQ(result.cnf.num_clauses(), 2u);
}

class PreprocessEquisat : public ::testing::TestWithParam<int> {};

TEST_P(PreprocessEquisat, PreservesSatisfiabilityAndModels) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  const Cnf cnf = gen::random_ksat(12, 45, 3, seed + 900);
  const bool expected = reference::brute_force_satisfiable(cnf);

  const PreprocessResult result = preprocess(cnf);
  if (result.unsat) {
    EXPECT_FALSE(expected);
    return;
  }
  Solver solver;
  solver.load(result.cnf);
  const SolveStatus status = solver.solve();
  EXPECT_EQ(status == SolveStatus::satisfiable, expected) << "seed " << seed;
  if (status == SolveStatus::satisfiable) {
    // Subsumption/strengthening preserve equivalence and the reduced
    // formula keeps its units, so its models satisfy the original.
    EXPECT_TRUE(cnf.is_satisfied_by(solver.model()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PreprocessEquisat, ::testing::Range(0, 20));

TEST(Preprocess, ShrinksPigeonholeDuplicateFreeFormula) {
  // Pigeonhole has no subsumed clauses: the preprocessor must not damage it.
  const Cnf cnf = gen::pigeonhole(4);
  const PreprocessResult result = preprocess(cnf);
  EXPECT_EQ(result.cnf.num_clauses(), cnf.num_clauses());
  Solver solver;
  solver.load(result.cnf);
  EXPECT_EQ(solver.solve(), SolveStatus::unsatisfiable);
}

// --- statistics -------------------------------------------------------------

TEST(CnfStatsTest, CountsShapes) {
  const Cnf cnf = make_cnf({{1}, {1, 2}, {-1, 2, 3}, {1, 2, 3, 4}});
  const CnfStats stats = compute_stats(cnf);
  EXPECT_EQ(stats.num_vars, 4);
  EXPECT_EQ(stats.num_clauses, 4u);
  EXPECT_EQ(stats.num_units, 1u);
  EXPECT_EQ(stats.num_binary, 1u);
  EXPECT_EQ(stats.num_ternary, 1u);
  EXPECT_EQ(stats.max_clause_length, 4u);
  EXPECT_EQ(stats.num_literals, 10u);
  EXPECT_DOUBLE_EQ(stats.mean_clause_length, 2.5);
  EXPECT_EQ(stats.length_histogram[3], 1u);
}

TEST(CnfStatsTest, HornDetection) {
  // (-1 -2 3) is horn (1 positive); (1 2) is not (2 positives).
  const Cnf cnf = make_cnf({{-1, -2, 3}, {1, 2}});
  const CnfStats stats = compute_stats(cnf);
  EXPECT_EQ(stats.num_horn, 1u);
}

TEST(CnfStatsTest, PositiveFraction) {
  const Cnf cnf = make_cnf({{1, -2}});
  EXPECT_DOUBLE_EQ(compute_stats(cnf).positive_literal_fraction, 0.5);
}

TEST(CnfStatsTest, SummaryMentionsCounts) {
  const Cnf cnf = make_cnf({{1, 2}});
  const std::string text = compute_stats(cnf).summary();
  EXPECT_NE(text.find("2 vars"), std::string::npos);
  EXPECT_NE(text.find("1 clauses"), std::string::npos);
}

TEST(CnfStatsTest, EmptyFormula) {
  const CnfStats stats = compute_stats(Cnf(3));
  EXPECT_EQ(stats.num_clauses, 0u);
  EXPECT_DOUBLE_EQ(stats.mean_clause_length, 0.0);
}

}  // namespace
}  // namespace berkmin
