// Restart-time inprocessing (src/core/inprocess.*): differential
// correctness against the reference DPLL oracle with every pass enabled
// (including bounded variable elimination and its model extension), proof
// soundness of inprocessed traces, and the guard that keeps every pass
// away from solvers with active clause groups.
#include <gtest/gtest.h>

#include "core/solver.h"
#include "gen/pigeonhole.h"
#include "gen/random_ksat.h"
#include "proof/drat_checker.h"
#include "proof/proof_writer.h"
#include "reference/dpll.h"
#include "test_util.h"

namespace berkmin {
namespace {

using berkmin::testing::lits;

// Aggressive schedule so passes actually fire on small formulas: restart
// every 20 conflicts, inprocess at every restart, eliminate variables.
SolverOptions inprocess_heavy(std::uint64_t seed) {
  SolverOptions options = SolverOptions::berkmin();
  options.restart_interval = 20;
  options.inprocess.enabled = true;
  options.inprocess.interval_restarts = 1;
  options.inprocess.var_elim = true;
  options.seed = seed;
  return options;
}

class InprocessDifferential : public ::testing::TestWithParam<int> {};

TEST_P(InprocessDifferential, MatchesDpllAndModelsSatisfyOriginal) {
  const int seed = GetParam();
  // Ratio ~4.4 near the phase transition: both outcomes common, enough
  // conflicts for restarts (and therefore inprocessing passes) to happen.
  const Cnf cnf = gen::random_ksat(/*num_vars=*/40, /*num_clauses=*/176,
                                   /*k=*/3, static_cast<std::uint64_t>(seed));

  Solver solver(inprocess_heavy(static_cast<std::uint64_t>(seed)));
  solver.load(cnf);
  const SolveStatus status = solver.solve();
  ASSERT_NE(status, SolveStatus::unknown);

  const auto oracle = reference::dpll_solve(cnf);
  ASSERT_TRUE(oracle.completed);
  EXPECT_EQ(status == SolveStatus::satisfiable, oracle.satisfiable)
      << "seed " << seed;

  if (status == SolveStatus::satisfiable) {
    // The model must satisfy the ORIGINAL formula: eliminated variables
    // are reassigned by the inprocessor's witness stack (extend_model).
    EXPECT_TRUE(cnf.is_satisfied_by(solver.model())) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InprocessDifferential, ::testing::Range(0, 30));

TEST(Inprocess, PassesActuallyRunOnHardInstances) {
  // Sanity for the suite above: with the aggressive schedule the passes
  // are not silently skipped.
  Solver solver(inprocess_heavy(7));
  solver.load(gen::pigeonhole(7));
  ASSERT_EQ(solver.solve(), SolveStatus::unsatisfiable);
  EXPECT_GT(solver.stats().inprocessings, 0u);
}

TEST(Inprocess, ProofLoggedTraceVerifiesAgainstOriginal) {
  // Every inprocessing rewrite (probed units, strengthened/vivified
  // clauses, eliminated variables' resolvents, deletions) is logged, so
  // the trace still verifies against the unmodified input.
  const Cnf cnf = gen::pigeonhole(6);
  proof::MemoryProofWriter writer;
  Solver solver(inprocess_heavy(3));
  solver.set_proof(&writer);
  solver.load(cnf);
  ASSERT_EQ(solver.solve(), SolveStatus::unsatisfiable);
  EXPECT_GT(solver.stats().inprocessings, 0u);

  ASSERT_TRUE(writer.proof().ends_with_empty());
  proof::DratChecker checker(cnf);
  const proof::CheckResult result = checker.check(writer.proof());
  EXPECT_TRUE(result.valid) << result.error;
  // Inprocessing deletes what it rewrites, so the trace carries deletions
  // and the checker's live set stays below "every add stays live".
  EXPECT_GT(writer.proof().num_deletes(), 0u);
  EXPECT_LT(result.peak_live_clauses, cnf.num_clauses() + result.checked_adds);
}

TEST(Inprocess, SkippedWhileClauseGroupsAreActive) {
  // Selector variables mark retractable clauses; every inprocessing pass
  // must stand down rather than draw permanent conclusions from them.
  SolverOptions options = inprocess_heavy(5);
  Solver solver(options);
  solver.push_group();
  const Cnf hole = gen::pigeonhole(7);
  for (const auto& clause : hole.clauses()) (void)solver.add_clause(clause);
  ASSERT_EQ(solver.solve(), SolveStatus::unsatisfiable);
  EXPECT_EQ(solver.stats().inprocessings, 0u);

  // The group retracts and the solver is usable again.
  solver.pop_group(solver.innermost_group());
  (void)solver.add_clause(lits({1}));
  EXPECT_EQ(solver.solve(), SolveStatus::satisfiable);
}

TEST(Inprocess, AssumptionSolvesStayCorrectAfterVarElim) {
  // A plain solve may eliminate variables; later assumption queries are
  // still sound as long as they honor the documented contract of only
  // mentioning surviving variables (var_elim itself is skipped while a
  // solve holds assumptions).
  SolverOptions options = inprocess_heavy(13);
  const Cnf cnf = gen::random_ksat(36, 150, 3, 42);
  Solver solver(options);
  solver.load(cnf);
  ASSERT_NE(solver.solve(), SolveStatus::unknown);
  for (int q = 0; q < 4; ++q) {
    // First surviving variable after q: external numbering coincides with
    // internal whenever var_elim was allowed to run.
    Var v = static_cast<Var>(q);
    while (v < solver.num_vars() && solver.var_eliminated(v)) ++v;
    ASSERT_LT(v, solver.num_vars());
    const std::vector<Lit> assumptions = {Lit(v, q % 2 == 0)};
    const SolveStatus status = solver.solve_with_assumptions(assumptions);
    Cnf assumed = cnf;
    for (const Lit a : assumptions) assumed.add_unit(a);
    const auto oracle = reference::dpll_solve(assumed);
    ASSERT_TRUE(oracle.completed);
    ASSERT_EQ(status == SolveStatus::satisfiable, oracle.satisfiable)
        << "query " << q;
    ASSERT_EQ(solver.validate_invariants(), "");
  }
}

}  // namespace
}  // namespace berkmin
