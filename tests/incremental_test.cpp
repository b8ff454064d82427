// Incremental solving: assumptions, failed-assumption cores, and model
// counting by blocking clauses.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/solver.h"
#include "gen/pigeonhole.h"
#include "gen/random_ksat.h"
#include "reference/brute_force.h"
#include "test_util.h"
#include "util/rng.h"

namespace berkmin {
namespace {

using testing::lits;
using testing::make_cnf;

TEST(Assumptions, SatUnderCompatibleAssumptions) {
  Solver solver;
  solver.load(make_cnf({{1, 2}, {-1, 3}}));
  const auto a = lits({1});
  ASSERT_EQ(solver.solve_with_assumptions(a), SolveStatus::satisfiable);
  EXPECT_TRUE(solver.model_value(from_dimacs(1)));
  EXPECT_TRUE(solver.model_value(from_dimacs(3)));
}

TEST(Assumptions, UnsatUnderContradictingAssumptions) {
  Solver solver;
  solver.load(make_cnf({{-1, -2}}));
  const auto a = lits({1, 2});
  EXPECT_EQ(solver.solve_with_assumptions(a), SolveStatus::unsatisfiable);
  // The formula itself is still satisfiable: the solver stays usable.
  EXPECT_TRUE(solver.ok());
  EXPECT_EQ(solver.solve(), SolveStatus::satisfiable);
}

TEST(Assumptions, FailedSetIsSubsetOfAssumptions) {
  Solver solver;
  solver.load(make_cnf({{-1, -2}, {5, 6}}));
  const auto a = lits({3, 1, 4, 2});  // only 1 and 2 matter
  ASSERT_EQ(solver.solve_with_assumptions(a), SolveStatus::unsatisfiable);
  const auto& failed = solver.failed_assumptions();
  EXPECT_FALSE(failed.empty());
  const std::set<Lit> allowed(a.begin(), a.end());
  for (const Lit l : failed) {
    EXPECT_TRUE(allowed.count(l)) << to_string(l);
  }
  // The irrelevant assumptions 3 and 4 should not be blamed.
  const std::set<Lit> failed_set(failed.begin(), failed.end());
  EXPECT_TRUE(failed_set.count(from_dimacs(1)));
  EXPECT_TRUE(failed_set.count(from_dimacs(2)));
  EXPECT_FALSE(failed_set.count(from_dimacs(3)));
  EXPECT_FALSE(failed_set.count(from_dimacs(4)));
}

TEST(Assumptions, FailedCoreIsActuallyUnsat) {
  // Verify the semantic guarantee: formula AND failed core is UNSAT.
  const Cnf cnf = gen::random_ksat(20, 70, 3, 11);
  Solver probe;
  probe.load(cnf);
  std::vector<Lit> assumptions;
  for (Var v = 0; v < 12; ++v) assumptions.push_back(Lit(v, v % 2 == 0));
  if (probe.solve_with_assumptions(assumptions) == SolveStatus::unsatisfiable &&
      probe.ok()) {
    Cnf augmented = cnf;
    for (const Lit l : probe.failed_assumptions()) augmented.add_unit(l);
    Solver check;
    check.load(augmented);
    EXPECT_EQ(check.solve(), SolveStatus::unsatisfiable);
  }
}

TEST(Assumptions, AssumptionDirectlyContradictsUnit) {
  Solver solver;
  solver.load(make_cnf({{-1}, {2, 3}}));
  ASSERT_EQ(solver.solve_with_assumptions(lits({1})),
            SolveStatus::unsatisfiable);
  EXPECT_TRUE(solver.ok());
  const auto& failed = solver.failed_assumptions();
  ASSERT_EQ(failed.size(), 1u);
  EXPECT_EQ(failed[0], from_dimacs(1));
}

TEST(Assumptions, RepeatedAndRedundantAssumptions) {
  Solver solver;
  solver.load(make_cnf({{1, 2}}));
  EXPECT_EQ(solver.solve_with_assumptions(lits({1, 1, 1})),
            SolveStatus::satisfiable);
}

TEST(Assumptions, GloballyUnsatFormulaReportsNotOk) {
  Solver solver;
  solver.load(make_cnf({{1}, {-1}}));
  EXPECT_EQ(solver.solve_with_assumptions(lits({2})),
            SolveStatus::unsatisfiable);
  EXPECT_FALSE(solver.ok());
}

TEST(Assumptions, SequenceOfCallsMatchesOracle) {
  // Incremental use: probe each variable's possible polarity; compare
  // against the brute-force backbone.
  const Cnf cnf = gen::random_ksat(12, 40, 3, 5);
  const auto oracle = reference::brute_force_solve(cnf);
  if (!oracle.satisfiable) return;

  Solver solver;
  solver.load(cnf);
  for (Var v = 0; v < cnf.num_vars(); ++v) {
    for (const bool positive : {true, false}) {
      const Lit probe = Lit(v, !positive);
      std::vector<Lit> assumption{probe};
      const SolveStatus status = solver.solve_with_assumptions(assumption);
      // Compare with brute force restricted to probe.
      Cnf restricted = cnf;
      restricted.add_unit(probe);
      const bool expected = reference::brute_force_satisfiable(restricted);
      EXPECT_EQ(status == SolveStatus::satisfiable, expected)
          << "var " << v << " positive " << positive;
    }
  }
}

class AssumptionSweep : public ::testing::TestWithParam<int> {};

TEST_P(AssumptionSweep, MatchesAddingUnits) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  const Cnf cnf = gen::random_ksat(16, 60, 3, seed + 300);
  Rng rng(seed);
  std::vector<Lit> assumptions;
  for (int i = 0; i < 5; ++i) {
    assumptions.push_back(Lit(static_cast<Var>(rng.below(16)), rng.coin()));
  }

  Solver incremental;
  incremental.load(cnf);
  const SolveStatus with_assumptions =
      incremental.solve_with_assumptions(assumptions);

  Cnf augmented = cnf;
  for (const Lit l : assumptions) augmented.add_unit(l);
  Solver direct;
  direct.load(augmented);
  EXPECT_EQ(with_assumptions, direct.solve());
}

INSTANTIATE_TEST_SUITE_P(Seeds, AssumptionSweep, ::testing::Range(0, 15));

// --- incremental slicing invariants ---------------------------------------
// A job preempted N times by tiny conflict budgets must reach the same
// verdict (and an equally sound failed-assumption core) as one unsliced
// run: the contract the time-sliced SolverService builds on.

class SlicedSolveSweep : public ::testing::TestWithParam<int> {};

TEST_P(SlicedSolveSweep, PreemptedRunMatchesUnslicedRun) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  const Cnf cnf = gen::random_ksat(24, 100, 3, seed + 900);
  Rng rng(seed + 5);
  std::vector<Lit> assumptions;
  for (int i = 0; i < 5; ++i) {
    assumptions.push_back(Lit(static_cast<Var>(rng.below(24)), rng.coin()));
  }

  // Unsliced oracle.
  Solver direct;
  direct.load(cnf);
  const SolveStatus expected = direct.solve_with_assumptions(assumptions);
  ASSERT_NE(expected, SolveStatus::unknown);

  // Sliced run: resume through tiny budgets until definitive. Every
  // intermediate unknown must be marked resumable with the conflict
  // budget as its cause.
  Solver sliced;
  sliced.load(cnf);
  SolveStatus status = SolveStatus::unknown;
  int slices = 0;
  for (; slices < 100000; ++slices) {
    status = sliced.solve_with_assumptions(assumptions, Budget::conflicts(3));
    if (status != SolveStatus::unknown) break;
    ASSERT_EQ(sliced.last_stop_cause(), StopCause::conflict_budget);
    ASSERT_TRUE(is_resumable(sliced.last_stop_cause()));
    ASSERT_LE(sliced.last_slice().conflicts, 3u);
  }
  EXPECT_EQ(status, expected) << "seed " << seed << " after " << slices
                              << " slices";

  if (status == SolveStatus::unsatisfiable && sliced.ok() && direct.ok()) {
    // Both cores must be subsets of the assumptions and semantically
    // sufficient: formula AND core is unsatisfiable.
    for (const Solver* solver : {&sliced, &direct}) {
      const std::set<Lit> allowed(assumptions.begin(), assumptions.end());
      for (const Lit l : solver->failed_assumptions()) {
        EXPECT_TRUE(allowed.count(l)) << to_string(l);
      }
      Cnf augmented = cnf;
      for (const Lit l : solver->failed_assumptions()) augmented.add_unit(l);
      Solver check;
      check.load(augmented);
      EXPECT_EQ(check.solve(), SolveStatus::unsatisfiable) << "seed " << seed;
    }
  }
  if (status == SolveStatus::satisfiable) {
    EXPECT_TRUE(cnf.is_satisfied_by(sliced.model())) << "seed " << seed;
    for (const Lit a : assumptions) {
      EXPECT_EQ(value_of_literal(sliced.model()[a.var()], a),
                Value::true_value)
          << "seed " << seed;
    }
  }
  EXPECT_EQ(sliced.validate_invariants(), "");
}

INSTANTIATE_TEST_SUITE_P(Seeds, SlicedSolveSweep, ::testing::Range(0, 12));

TEST(SlicedSolve, StatePersistsAcrossPreemptions) {
  // The whole point of preemption-with-state: learned clauses accumulated
  // in early slices are still there in later ones, so the sliced run's
  // total conflicts stay comparable to an unsliced run's instead of
  // restarting from scratch every slice.
  const Cnf cnf = gen::pigeonhole(6);

  Solver sliced;
  sliced.load(cnf);
  int slices = 0;
  std::uint64_t learned_high_water = 0;
  while (sliced.solve(Budget::conflicts(20)) == SolveStatus::unknown) {
    ++slices;
    ASSERT_EQ(sliced.last_stop_cause(), StopCause::conflict_budget);
    // Cumulative learned clauses never reset between slices.
    ASSERT_GE(sliced.stats().learned_clauses, learned_high_water);
    learned_high_water = sliced.stats().learned_clauses;
    ASSERT_LT(slices, 100000) << "sliced run diverged";
  }
  EXPECT_GT(slices, 0) << "hole(6) finished in one 20-conflict slice?";

  Solver direct;
  direct.load(cnf);
  ASSERT_EQ(direct.solve(), SolveStatus::unsatisfiable);

  // If slices restarted the search from zero each time, the sliced total
  // would blow up by orders of magnitude; with preserved state it stays
  // within a small factor of the unsliced run.
  EXPECT_LT(sliced.stats().conflicts, 20 * direct.stats().conflicts + 2000);
}

// --- model counting by blocking clauses ---------------------------------

// Re-solves after each model with that model's negation added, so the
// number of SAT answers is the number of models.
std::uint64_t count_by_blocking(const Cnf& cnf, const SolverOptions& options) {
  Solver solver(options);
  solver.load(cnf);
  std::uint64_t models = 0;
  while (solver.solve() == SolveStatus::satisfiable) {
    ++models;
    std::vector<Lit> blocking;
    for (Var v = 0; v < cnf.num_vars(); ++v) {
      blocking.push_back(Lit(v, solver.model()[v] == Value::true_value));
    }
    if (!solver.add_clause(blocking)) break;
  }
  return models;
}

TEST(BlockingClauses, CountsMatchBruteForce) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const Cnf cnf = gen::random_ksat(10, 25, 3, seed + 40);
    const auto oracle = reference::brute_force_solve(cnf);
    EXPECT_EQ(count_by_blocking(cnf, SolverOptions::berkmin()),
              oracle.num_models)
        << "seed " << seed;
  }
}

TEST(BlockingClauses, UnsatFormulaHasNoModels) {
  const Cnf cnf = make_cnf({{1}, {-1}});
  EXPECT_EQ(count_by_blocking(cnf, SolverOptions::berkmin()), 0u);
}

TEST(BlockingClauses, ChaffConfigurationAgrees) {
  const Cnf cnf = gen::random_ksat(9, 20, 3, 77);
  const auto oracle = reference::brute_force_solve(cnf);
  EXPECT_EQ(count_by_blocking(cnf, SolverOptions::chaff_like()),
            oracle.num_models);
}

}  // namespace
}  // namespace berkmin
