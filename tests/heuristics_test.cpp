// Decision-making heuristics: top-clause selection (Section 5), branch
// polarity (Section 7, including the nb_two cost function), Chaff-like
// literal decisions, and activity aging.
#include <gtest/gtest.h>

#include "core/solver.h"
#include "test_util.h"

namespace berkmin {
namespace {

using testing::lits;
using testing::make_cnf;

// Sets up the Section 4 scenario (see analyze_test.cpp), learns
// x | ~y | ~z, then restarts to the root so the learned clause becomes
// the unsatisfied top clause. Variables: a=1, c=2, x=3, y=4, z=5.
class TopClauseFixture : public ::testing::Test {
 protected:
  void prepare(Solver& solver) {
    solver.load(make_cnf({{-1, 3, -2}, {1, 3, -5}, {2, -4, -5}}));
    solver.assume(from_dimacs(-3));
    ASSERT_EQ(solver.propagate(), no_clause);
    solver.assume(from_dimacs(4));
    ASSERT_EQ(solver.propagate(), no_clause);
    solver.assume(from_dimacs(5));
    const ClauseRef conflict = solver.propagate();
    ASSERT_NE(conflict, no_clause);
    solver.resolve_conflict(conflict);
    ASSERT_EQ(solver.num_learned(), 1u);
    solver.backtrack_to(0);
  }

  static SolverOptions with_polarity(PolarityPolicy policy) {
    return SolverOptions::with_polarity(policy);
  }
};

TEST_F(TopClauseFixture, BranchesOnMostActiveVarOfTopClause) {
  // Activities after the conflict: x=2, y=1, z=2. Free vars of the top
  // clause {x, y, z}; the most active is z (clause order puts ~z first).
  Solver solver(with_polarity(PolarityPolicy::take_1));
  prepare(solver);
  const Lit branch = solver.decide_next_branch();
  EXPECT_EQ(branch.var(), 4);  // z
  EXPECT_EQ(solver.stats().top_clause_decisions, 1u);
  EXPECT_EQ(solver.stats().global_decisions, 0u);
}

TEST_F(TopClauseFixture, Take1AssignsTrue) {
  Solver solver(with_polarity(PolarityPolicy::take_1));
  prepare(solver);
  EXPECT_EQ(solver.decide_next_branch(), Lit::positive(4));
}

TEST_F(TopClauseFixture, Take0AssignsFalse) {
  Solver solver(with_polarity(PolarityPolicy::take_0));
  prepare(solver);
  EXPECT_EQ(solver.decide_next_branch(), Lit::negative(4));
}

TEST_F(TopClauseFixture, SatTopSatisfiesTheTopClause) {
  // z appears as ~z in the learned clause: satisfying means z = 0.
  Solver solver(with_polarity(PolarityPolicy::sat_top));
  prepare(solver);
  EXPECT_EQ(solver.decide_next_branch(), Lit::negative(4));
}

TEST_F(TopClauseFixture, UnsatTopFalsifiesTheChosenLiteral) {
  Solver solver(with_polarity(PolarityPolicy::unsat_top));
  prepare(solver);
  EXPECT_EQ(solver.decide_next_branch(), Lit::positive(4));
}

TEST_F(TopClauseFixture, SymmetrizeBalancesLitActivity) {
  // lit_activity(z) = 0, lit_activity(~z) = 1 (the learned clause holds
  // ~z). Branching z=0 first would produce clauses containing z,
  // replenishing the under-represented side — per Section 7 that means
  // exploring the branch that sets the under-represented literal's
  // variable to 0, i.e. decision literal ~z.
  Solver solver(with_polarity(PolarityPolicy::symmetrize));
  prepare(solver);
  EXPECT_EQ(solver.decide_next_branch(), Lit::negative(4));
}

TEST_F(TopClauseFixture, SkinHistogramRecordsDistanceZero) {
  Solver solver(with_polarity(PolarityPolicy::take_1));
  prepare(solver);
  solver.decide_next_branch();
  EXPECT_EQ(solver.stats().skin_at(0), 1u);
}

TEST_F(TopClauseFixture, SatisfiedTopClauseFallsThroughToGlobal) {
  Solver solver(with_polarity(PolarityPolicy::take_1));
  prepare(solver);
  // Satisfy the learned clause x | ~y | ~z by assuming x.
  solver.assume(from_dimacs(3));
  ASSERT_EQ(solver.propagate(), no_clause);
  solver.decide_next_branch();
  EXPECT_EQ(solver.stats().global_decisions, 1u);
  EXPECT_EQ(solver.stats().top_clause_decisions, 0u);
}

TEST_F(TopClauseFixture, GlobalActivityPolicyIgnoresTopClause) {
  // The "less_mobility" ablation branches on the globally most active
  // variable even though an unsatisfied conflict clause exists.
  SolverOptions options = SolverOptions::less_mobility();
  Solver solver(options);
  prepare(solver);
  solver.decide_next_branch();
  EXPECT_EQ(solver.stats().global_decisions, 1u);
  EXPECT_EQ(solver.stats().top_clause_decisions, 0u);
}

TEST(NbTwo, PaperStyleNeighborhoodCount) {
  // Binary clauses with literal 1: (1 2), (1 3).
  //   For (1 2): binaries containing -2: (-2 4), (-2 5)  -> 2
  //   For (1 3): binaries containing -3: (-3 6)          -> 1
  // nb_two(1) = 2 (own binaries) + 2 + 1 = 5.
  Solver solver;
  solver.load(make_cnf({{1, 2}, {1, 3}, {-2, 4}, {-2, 5}, {-3, 6},
                        {7, 8, 9}}));  // ternary clause is ignored
  EXPECT_EQ(solver.nb_two(from_dimacs(1)), 5u);
}

TEST(NbTwo, CountsCurrentlyBinaryClausesOnly) {
  Solver solver;
  solver.load(make_cnf({{1, 2}, {1, 3, 4}}));
  EXPECT_EQ(solver.nb_two(from_dimacs(1)), 1u);  // ternary not binary yet
  solver.assume(from_dimacs(-4));
  ASSERT_EQ(solver.propagate(), no_clause);
  // (1 3 4) shrank to an effective binary (1 3).
  EXPECT_EQ(solver.nb_two(from_dimacs(1)), 2u);
}

TEST(NbTwo, SatisfiedClausesExcluded) {
  Solver solver;
  solver.load(make_cnf({{1, 2}, {-2, 4}, {1, 5}}));
  EXPECT_EQ(solver.nb_two(from_dimacs(1)), 3u);
  solver.assume(from_dimacs(4));  // satisfies (-2 4)
  ASSERT_EQ(solver.propagate(), no_clause);
  EXPECT_EQ(solver.nb_two(from_dimacs(1)), 2u);
}

TEST(NbTwo, ThresholdCapsComputation) {
  Solver solver;
  Cnf cnf;
  // Half again as many binaries on literal 1 as the threshold.
  for (std::uint32_t i = 0; i < kNbTwoThreshold * 3 / 2; ++i) {
    cnf.add_binary(from_dimacs(1), Lit::positive(cnf.add_var() + 1));
  }
  solver.load(cnf);
  // Computation stops soon after passing the threshold.
  EXPECT_LE(solver.nb_two(from_dimacs(1)), kNbTwoThreshold + 2);
  EXPECT_GT(solver.nb_two(from_dimacs(1)), kNbTwoThreshold);
}

TEST(NbTwo, GlobalDecisionFalsifiesStrongLiteral) {
  // No learned clauses: the first decision is global. nb_two(-1) counts
  // the binaries containing -1; nb_two(1) = 0. The strong literal -1 is
  // set to 0, i.e. the decision literal is 1.
  Solver solver;  // berkmin defaults, symmetrize unused for global
  solver.load(make_cnf({{-1, 2}, {-1, 3}, {-1, 4}, {5, 6, 7}}));
  // Make variable 0 the most active so the global decision picks it.
  // Fresh solver: all activities 0; the heap tie-breaks to variable 0.
  const Lit branch = solver.decide_next_branch();
  EXPECT_EQ(branch, from_dimacs(1));
  EXPECT_EQ(solver.stats().global_decisions, 1u);
}

TEST(ChaffLiteral, PicksLiteralWithHighestCounter) {
  Solver solver(SolverOptions::chaff_like());
  solver.load(make_cnf({{-1, -2, 3}, {-1, -2, -3}, {4, 5}}));
  solver.assume(from_dimacs(1));
  ASSERT_EQ(solver.propagate(), no_clause);
  solver.assume(from_dimacs(2));
  const ClauseRef conflict = solver.propagate();
  ASSERT_NE(conflict, no_clause);
  solver.resolve_conflict(conflict);  // learns (~1 ~2): counters move
  solver.backtrack_to(0);
  EXPECT_EQ(solver.chaff_counter(from_dimacs(-1)), 1u);
  EXPECT_EQ(solver.chaff_counter(from_dimacs(-2)), 1u);
  const Lit branch = solver.decide_next_branch();
  // One of the bumped literals is chosen and made true.
  EXPECT_TRUE(branch == from_dimacs(-1) || branch == from_dimacs(-2));
}

TEST(Aging, VarActivitiesDecayOnSchedule) {
  SolverOptions options;
  options.var_decay_interval = 1;  // decay after every conflict
  options.restart_policy = RestartPolicy::none;
  Solver solver(options);
  // Two conflicting clauses force one conflict through solve().
  solver.load(make_cnf({{-1, 2}, {-1, -2}, {3, 4}}));
  ASSERT_EQ(solver.solve(), SolveStatus::satisfiable);
  // After the single conflict, activities were divided by kVarDecayFactor:
  // vars 1 and 2 were bumped twice each (conflicting + reason clause).
  EXPECT_EQ(solver.var_activity(0), 2u / kVarDecayFactor);
}

TEST(Aging, LitActivityNeverDecays) {
  // Section 7 counters record clauses "ever" deduced; no aging applies.
  SolverOptions options;
  options.var_decay_interval = 1;
  Solver solver(options);
  solver.load(make_cnf({{-1, 2}, {-1, -2}, {3, 4}}));
  ASSERT_EQ(solver.solve(), SolveStatus::satisfiable);
  EXPECT_EQ(solver.lit_activity(from_dimacs(-1)), 1u);  // learned unit (~1)
}

TEST(TopClauseWindow, WidenedSearchStillSolves) {
  // Remark 2 extension: considering K top clauses must preserve
  // correctness.
  SolverOptions options;
  options.top_clause_window = 4;
  Solver solver(options);
  Cnf cnf;
  // Pigeonhole 4->3 again: forces many conflicts through the window path.
  const auto var_of = [](int p, int h) { return p * 3 + h; };
  for (int p = 0; p < 4; ++p) {
    std::vector<Lit> clause;
    for (int h = 0; h < 3; ++h) clause.push_back(Lit::positive(var_of(p, h)));
    cnf.add_clause(clause);
  }
  for (int h = 0; h < 3; ++h) {
    for (int p = 0; p < 4; ++p) {
      for (int q = p + 1; q < 4; ++q) {
        cnf.add_binary(Lit::negative(var_of(p, h)), Lit::negative(var_of(q, h)));
      }
    }
  }
  Solver plain;
  plain.load(cnf);
  solver.load(cnf);
  EXPECT_EQ(solver.solve(), SolveStatus::unsatisfiable);
  EXPECT_EQ(plain.solve(), SolveStatus::unsatisfiable);
}

}  // namespace
}  // namespace berkmin
