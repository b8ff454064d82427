// Solver::load stores a formula's clauses first and lays every watch and
// occurrence list out once, so loading leaves no relocation garbage in the
// watch pools and attaches watchers in exactly the order clause-by-clause
// adds would (the search cannot tell the two paths apart).
#include <gtest/gtest.h>

#include "core/solver.h"
#include "gen/hanoi.h"
#include "gen/random_ksat.h"
#include "harness/suites.h"

namespace berkmin {
namespace {

void expect_gap_free(const Solver& solver) {
  EXPECT_EQ(solver.watch_pool().wasted(), 0u);
  EXPECT_EQ(solver.bin_watch_pool().wasted(), 0u);
  EXPECT_EQ(solver.validate_invariants(), "");
}

void expect_same_search(const Solver& a, const Solver& b) {
  EXPECT_EQ(a.stats().propagations, b.stats().propagations);
  EXPECT_EQ(a.stats().conflicts, b.stats().conflicts);
  EXPECT_EQ(a.stats().decisions, b.stats().decisions);
}

Cnf hanoi6() {
  return gen::hanoi_instance(6, gen::HanoiEncoding::optimal_moves(6));
}

TEST(LoadLayout, Hanoi6LeavesNoWatchGarbage) {
  Solver solver;
  ASSERT_TRUE(solver.load(hanoi6()));
  EXPECT_GT(solver.bin_watch_pool().live(), 100000u);
  expect_gap_free(solver);
}

TEST(LoadLayout, PaperClassesLeaveNoWatchGarbage) {
  for (const harness::Suite& suite : harness::paper_classes(1, 7)) {
    for (const harness::Instance& instance : suite.instances) {
      SCOPED_TRACE(instance.name);
      Solver solver;
      solver.load(instance.cnf);
      expect_gap_free(solver);
    }
  }
}

TEST(LoadLayout, SearchMatchesClauseByClauseAdds) {
  const Cnf cnf = gen::hanoi_instance(4, 14);  // one move short: UNSAT
  Solver loaded;
  loaded.load(cnf);
  Solver added;
  for (const auto clause : cnf.clauses()) added.add_clause(clause);
  EXPECT_EQ(loaded.solve(), SolveStatus::unsatisfiable);
  EXPECT_EQ(added.solve(), SolveStatus::unsatisfiable);
  expect_same_search(loaded, added);
}

// Loading onto a solver that already holds clauses, learned ones and a
// root trail keeps every existing list's order and squeezes its garbage
// out too.
TEST(LoadLayout, IncrementalLoadOntoNonEmptySolver) {
  const Cnf first = gen::random_ksat(150, 630, 3, 11);
  const Cnf second = gen::random_ksat(150, 60, 3, 12);
  Solver loaded;
  Solver added;
  for (Solver* solver : {&loaded, &added}) {
    solver->load(first);
    solver->add_clause({from_dimacs(151), from_dimacs(152)});
    solver->add_clause({from_dimacs(-151)});
    ASSERT_EQ(solver->solve(Budget::conflicts(50)), SolveStatus::unknown);
  }
  ASSERT_FALSE(loaded.learned_stack().empty());
  loaded.load(second);
  for (const auto clause : second.clauses()) added.add_clause(clause);
  expect_gap_free(loaded);
  const SolveStatus status = loaded.solve();
  EXPECT_NE(status, SolveStatus::unknown);
  EXPECT_EQ(added.solve(), status);
  expect_same_search(loaded, added);
}

}  // namespace
}  // namespace berkmin
