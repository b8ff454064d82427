// The SatEngine interface: one push / add-to-group / park / pop / solve
// script driven through SatEngine& on a sequential Solver and on a
// 2-worker PortfolioSolver must give the same answers, the portfolio's
// per-call accounting (last_slice, stats) must match its workers, and both
// must log a checkable refutation into the writer attached with set_proof.
// The engine factory (portfolio::make_engine) builds a plain Solver at one
// thread and a portfolio whose worker 0 runs the caller's options above
// that, and no portfolio worker ever eliminates variables.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "core/sat_engine.h"
#include "core/solver.h"
#include "gen/pigeonhole.h"
#include "gen/registry.h"
#include "portfolio/portfolio.h"
#include "proof/drat_checker.h"
#include "proof/proof_writer.h"
#include "reference/dpll.h"
#include "test_util.h"

namespace berkmin {
namespace {

using testing::lits;

std::unique_ptr<SatEngine> make_engine(bool race) {
  return portfolio::make_engine(SolverOptions::berkmin(), race ? 2 : 1);
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
    for (const WorkerReport& report : engine.race().workers) {
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

// Inprocessing with variable elimination, first pass at the first restart.
SolverOptions eliminating_options() {
  SolverOptions options = SolverOptions::berkmin();
  options.restart_interval = 20;
  options.inprocess.enabled = true;
  options.inprocess.var_elim = true;
  options.inprocess.interval_restarts = 1;
  return options;
}

TEST(SatEngine, NoPortfolioWorkerEliminatesVariables) {
  // Circuit encodings, where elimination finds gate variables to remove.
  const char* const specs[] = {"adder:5:0", "adder:6:0", "adder:6:1",
                               "miter:10:120:unsat:3"};
  for (std::size_t i = 0; i < std::size(specs); ++i) {
    const char* const spec = specs[i];
    std::string error;
    const Cnf cnf = gen::generate_from_spec(spec, &error)->cnf;
    const bool expected = reference::dpll_solve(cnf).satisfiable;
    // The options do eliminate variables on a sequential solver.
    Solver sequential(eliminating_options());
    sequential.load(cnf);
    ASSERT_EQ(sequential.solve() == SolveStatus::satisfiable, expected);
    EXPECT_GT(sequential.stats().eliminated_vars, 0u) << spec;

    const int threads = 2 + static_cast<int>(i % 2);
    portfolio::PortfolioOptions explicit_lineup;
    explicit_lineup.num_threads = threads;
    explicit_lineup.configs =
        portfolio::diversify_around(eliminating_options(), threads, i);
    std::vector<std::unique_ptr<SatEngine>> engines;
    engines.push_back(portfolio::make_engine(eliminating_options(), threads));
    engines.push_back(
        std::make_unique<portfolio::PortfolioSolver>(explicit_lineup));
    for (const std::unique_ptr<SatEngine>& engine : engines) {
      engine->load(cnf);
      const SolveStatus status = engine->solve_with_assumptions({});
      ASSERT_NE(status, SolveStatus::unknown) << spec;
      EXPECT_EQ(status == SolveStatus::satisfiable, expected)
          << spec;
      if (status == SolveStatus::satisfiable) {
        EXPECT_TRUE(cnf.is_satisfied_by(engine->model())) << spec;
      }
      ASSERT_EQ(engine->race().workers.size(),
                static_cast<std::size_t>(threads));
      for (const WorkerReport& report : engine->race().workers) {
        EXPECT_EQ(report.stats.eliminated_vars, 0u)
            << spec << " worker " << report.name;
      }
    }
  }
}

TEST(SatEngine, FactoryRunsTheCallersOptions) {
  SolverOptions options = SolverOptions::less_mobility();
  options.seed = 17;
  options.minimize_learned = true;
  options.inprocess.enabled = true;
  const Cnf cnf = gen::pigeonhole(7);

  // One thread: a plain solver, counter for counter.
  const std::unique_ptr<SatEngine> single = portfolio::make_engine(options, 1);
  Solver plain(options);
  single->load(cnf);
  plain.load(cnf);
  ASSERT_EQ(single->solve_with_assumptions({}), SolveStatus::unsatisfiable);
  ASSERT_EQ(plain.solve(), SolveStatus::unsatisfiable);
  for (const SolverCounter& counter : kSolverCounters) {
    EXPECT_EQ(single->stats().*counter.field, plain.stats().*counter.field)
        << counter.name;
  }
  EXPECT_TRUE(single->race().workers.empty());

  // Three threads: worker 0 runs the options unchanged. Without sharing
  // and under a budget no worker reaches, it also searches exactly as the
  // plain solver does.
  const std::unique_ptr<SatEngine> race =
      portfolio::make_engine(options, 3, {.share_clauses = false});
  const auto* portfolio = dynamic_cast<portfolio::PortfolioSolver*>(race.get());
  ASSERT_NE(portfolio, nullptr);
  const Cnf hard = gen::pigeonhole(9);
  race->load(hard);
  ASSERT_EQ(race->solve_with_assumptions({}, Budget::conflicts(400)),
            SolveStatus::unknown);
  const SolverOptions& worker0 = portfolio->worker(0)->options();
  EXPECT_EQ(worker0.describe(), options.describe());
  EXPECT_EQ(worker0.seed, options.seed);
  EXPECT_EQ(worker0.var_decay_interval, options.var_decay_interval);
  // Workers take the formula clause by clause, so the control does too.
  Solver budgeted(options);
  for (const auto clause : hard.clauses()) budgeted.add_clause(clause);
  ASSERT_EQ(budgeted.solve(Budget::conflicts(400)), SolveStatus::unknown);
  ASSERT_EQ(race->race().workers.size(), 3u);
  for (const SolverCounter& counter : kSolverCounters) {
    EXPECT_EQ(race->race().workers[0].stats.*counter.field,
              budgeted.stats().*counter.field)
        << counter.name;
  }
}

}  // namespace
}  // namespace berkmin
