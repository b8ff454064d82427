// The SatEngine interface: one push / add-to-group / park / pop / solve
// script driven through SatEngine& on a sequential Solver and on a
// 2-worker PortfolioSolver must give the same answers, the portfolio's
// per-call accounting (last_slice, stats) must match its workers, and both
// must log a checkable refutation into the writer attached with set_proof.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/sat_engine.h"
#include "core/solver.h"
#include "gen/pigeonhole.h"
#include "portfolio/portfolio.h"
#include "proof/drat_checker.h"
#include "proof/proof_writer.h"
#include "test_util.h"

namespace berkmin {
namespace {

using testing::lits;

std::unique_ptr<SatEngine> make_engine(bool race) {
  if (!race) return std::make_unique<Solver>();
  portfolio::PortfolioOptions options;
  options.num_threads = 2;
  return std::make_unique<portfolio::PortfolioSolver>(options);
}

struct Answer {
  SolveStatus status = SolveStatus::unknown;
  std::vector<Lit> failed;
};

Answer solve(SatEngine& engine, const std::vector<Lit>& assumptions) {
  Answer answer;
  answer.status = engine.solve_with_assumptions(assumptions);
  answer.failed = engine.failed_assumptions();
  // A failed core names only the caller's assumptions.
  for (const Lit l : answer.failed) {
    EXPECT_NE(std::find(assumptions.begin(), assumptions.end(), l),
              assumptions.end());
  }
  if (answer.status == SolveStatus::satisfiable) {
    for (const Lit a : assumptions) {
      EXPECT_EQ(value_of_literal(engine.model()[a.var()], a),
                Value::true_value);
    }
  }
  return answer;
}

// Base: (x1 | x2), (-x1 | x3). Group g1 holds -x2 and, added later by
// handle, (-x1 | -x4); group g2 holds -x3.
std::vector<Answer> run_script(SatEngine& engine) {
  std::vector<Answer> answers;
  EXPECT_TRUE(engine.add_clause(lits({1, 2})));
  EXPECT_TRUE(engine.add_clause(lits({-1, 3})));
  const GroupId g1 = engine.push_group();
  EXPECT_NE(g1, no_group);
  EXPECT_TRUE(engine.add_clause(lits({-2})));
  const GroupId g2 = engine.push_group();
  EXPECT_NE(g2, no_group);
  EXPECT_TRUE(engine.add_clause(lits({-3})));
  EXPECT_TRUE(engine.add_clause_to_group(g1, lits({-1, -4})));

  answers.push_back(solve(engine, {}));  // -x2 -> x1 -> x3, but -x3
  EXPECT_TRUE(engine.set_group_active(g2, false));
  answers.push_back(solve(engine, lits({4})));   // x1 forces -x4
  answers.push_back(solve(engine, lits({-4})));
  EXPECT_TRUE(engine.pop_group(g1));
  EXPECT_FALSE(engine.pop_group(g1));  // a dead handle is refused
  answers.push_back(solve(engine, lits({4, 2})));
  EXPECT_TRUE(engine.set_group_active(g2, true));
  answers.push_back(solve(engine, lits({-2})));  // -x3 -> -x1 -> x2
  EXPECT_TRUE(engine.pop_group(g2));
  answers.push_back(solve(engine, lits({-2})));
  return answers;
}

TEST(SatEngine, SolverAndPortfolioAnswerTheSameScript) {
  const std::unique_ptr<SatEngine> solver = make_engine(false);
  const std::unique_ptr<SatEngine> race = make_engine(true);
  const std::vector<Answer> expected = run_script(*solver);
  const std::vector<Answer> raced = run_script(*race);

  const std::vector<SolveStatus> statuses = {
      SolveStatus::unsatisfiable, SolveStatus::unsatisfiable,
      SolveStatus::satisfiable,   SolveStatus::satisfiable,
      SolveStatus::unsatisfiable, SolveStatus::satisfiable};
  ASSERT_EQ(expected.size(), statuses.size());
  ASSERT_EQ(raced.size(), statuses.size());
  for (std::size_t i = 0; i < statuses.size(); ++i) {
    EXPECT_EQ(expected[i].status, statuses[i]) << "query " << i;
    EXPECT_EQ(raced[i].status, statuses[i]) << "query " << i;
  }
  // Group-only conflict: nothing of the caller's is to blame.
  EXPECT_TRUE(expected[0].failed.empty());
  EXPECT_TRUE(raced[0].failed.empty());
  // Assumption-dependent conflicts blame exactly the one assumption.
  EXPECT_EQ(expected[1].failed, lits({4}));
  EXPECT_EQ(raced[1].failed, lits({4}));
  EXPECT_EQ(expected[4].failed, lits({-2}));
  EXPECT_EQ(raced[4].failed, lits({-2}));
}

TEST(SatEngine, PortfolioLastSliceIsTheCallsWorkerDelta) {
  portfolio::PortfolioOptions options;
  options.num_threads = 2;
  portfolio::PortfolioSolver race(options);
  SatEngine& engine = race;
  engine.load(gen::pigeonhole(8));

  SolverStats before;
  for (int call = 0; call < 2; ++call) {
    (void)engine.solve_with_assumptions({}, Budget::conflicts(300));
    SolverStats after;
    for (const portfolio::WorkerReport& report : race.reports()) {
      after.conflicts += report.stats.conflicts;
      after.decisions += report.stats.decisions;
      after.propagations += report.stats.propagations;
      after.restarts += report.stats.restarts;
      after.learned_clauses += report.stats.learned_clauses;
      after.exported_clauses += report.stats.exported_clauses;
      after.imported_clauses += report.stats.imported_clauses;
    }
    const SliceStats& slice = engine.last_slice();
    EXPECT_EQ(slice.conflicts, after.conflicts - before.conflicts);
    EXPECT_EQ(slice.decisions, after.decisions - before.decisions);
    EXPECT_EQ(slice.propagations, after.propagations - before.propagations);
    EXPECT_EQ(slice.restarts, after.restarts - before.restarts);
    EXPECT_EQ(slice.learned_clauses,
              after.learned_clauses - before.learned_clauses);
    EXPECT_GT(slice.conflicts, 0u) << "call " << call;
    // Exchange counters are summed over workers; the rest is the winner's.
    EXPECT_EQ(engine.stats().exported_clauses, after.exported_clauses);
    EXPECT_EQ(engine.stats().imported_clauses, after.imported_clauses);
    before = after;
  }
}

TEST(SatEngine, StopIsStickyUntilCleared) {
  for (const bool race : {false, true}) {
    const std::unique_ptr<SatEngine> engine = make_engine(race);
    engine->load(gen::pigeonhole(5));
    engine->request_stop();
    EXPECT_EQ(engine->solve_with_assumptions({}), SolveStatus::unknown)
        << (race ? "portfolio" : "solver");
    EXPECT_EQ(engine->solve_with_assumptions({}), SolveStatus::unknown);
    engine->clear_stop();
    EXPECT_EQ(engine->solve_with_assumptions({}), SolveStatus::unsatisfiable)
        << (race ? "portfolio" : "solver");
  }
}

TEST(SatEngine, BothEnginesLogIntoTheAttachedWriter) {
  const Cnf cnf = gen::pigeonhole(5);
  for (const bool race : {false, true}) {
    const std::unique_ptr<SatEngine> engine = make_engine(race);
    proof::MemoryProofWriter writer;
    engine->set_proof(&writer);
    engine->load(cnf);
    ASSERT_EQ(engine->solve_with_assumptions({}), SolveStatus::unsatisfiable)
        << (race ? "portfolio" : "solver");
    ASSERT_TRUE(writer.proof().ends_with_empty())
        << (race ? "portfolio" : "solver");
    proof::DratChecker checker(cnf);
    const proof::CheckResult result = checker.check(writer.proof());
    EXPECT_TRUE(result.valid) << (race ? "portfolio: " : "solver: ")
                              << result.error;
  }
}

}  // namespace
}  // namespace berkmin
