// The parallel portfolio: diversification, the clause exchange, and
// result agreement with the sequential solver and the DPLL reference.
#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>

#include "gen/pigeonhole.h"
#include "gen/random_ksat.h"
#include "portfolio/clause_exchange.h"
#include "portfolio/diversify.h"
#include "portfolio/portfolio.h"
#include "reference/dpll.h"
#include "test_util.h"

namespace berkmin {
namespace {

using portfolio::ClauseExchange;
using portfolio::ExchangeLimits;
using portfolio::PortfolioOptions;
using portfolio::PortfolioSolver;
using portfolio::WorkerConfig;

// ---- clause exchange --------------------------------------------------

TEST(PortfolioExchange, RoundTripExcludesTheSource) {
  ClauseExchange exchange(3);
  const auto clause = testing::lits({1, -2, 3});
  EXPECT_TRUE(exchange.publish(0, clause));

  std::vector<std::vector<Lit>> got;
  EXPECT_EQ(exchange.collect(1, &got), 1u);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], clause);

  // The source never gets its own clause back; a repeat collect for the
  // same worker yields nothing new.
  got.clear();
  EXPECT_EQ(exchange.collect(0, &got), 0u);
  EXPECT_EQ(exchange.collect(1, &got), 0u);
  EXPECT_TRUE(got.empty());
}

TEST(PortfolioExchange, CursorPicksUpLaterPublications) {
  ClauseExchange exchange(2);
  EXPECT_TRUE(exchange.publish(0, testing::lits({1, 2})));
  std::vector<std::vector<Lit>> got;
  EXPECT_EQ(exchange.collect(1, &got), 1u);
  EXPECT_TRUE(exchange.publish(0, testing::lits({3, 4})));
  EXPECT_EQ(exchange.collect(1, &got), 1u);
  EXPECT_EQ(got.size(), 2u);
}

TEST(PortfolioExchange, DeduplicatesUpToLiteralOrder) {
  ClauseExchange exchange(2);
  EXPECT_TRUE(exchange.publish(0, testing::lits({1, -2, 3})));
  EXPECT_FALSE(exchange.publish(1, testing::lits({3, 1, -2})));
  EXPECT_EQ(exchange.size(), 1u);
  EXPECT_EQ(exchange.stats().rejected_duplicate, 1u);
}

TEST(PortfolioExchange, RejectsClausesOverTheLengthCap) {
  ExchangeLimits limits;
  limits.max_clause_length = 3;
  ClauseExchange exchange(2, limits);
  EXPECT_TRUE(exchange.publish(0, testing::lits({1, 2, 3})));
  EXPECT_FALSE(exchange.publish(0, testing::lits({1, 2, 3, 4})));
  EXPECT_EQ(exchange.stats().rejected_length, 1u);
}

TEST(PortfolioExchange, EnforcesTheClauseBudget) {
  ExchangeLimits limits;
  limits.max_clauses = 2;
  ClauseExchange exchange(2, limits);
  EXPECT_TRUE(exchange.publish(0, testing::lits({1, 2})));
  EXPECT_TRUE(exchange.publish(0, testing::lits({2, 3})));
  EXPECT_FALSE(exchange.publish(0, testing::lits({3, 4})));
  EXPECT_EQ(exchange.size(), 2u);
  EXPECT_EQ(exchange.stats().rejected_full, 1u);
}

TEST(PortfolioExchange, StatsAreCoherent) {
  ClauseExchange exchange(2);
  exchange.publish(0, testing::lits({1, 2}));
  exchange.publish(1, testing::lits({2, 1}));  // duplicate
  const auto stats = exchange.stats();
  EXPECT_EQ(stats.published, 2u);
  EXPECT_EQ(stats.accepted + stats.rejected_duplicate + stats.rejected_length +
                stats.rejected_full,
            stats.published);
}

// ---- diversification --------------------------------------------------

TEST(PortfolioDiversify, WorkerZeroIsTheBerkMinPreset) {
  const auto configs = portfolio::diversified_configs(4, 7);
  ASSERT_GE(configs.size(), 1u);
  EXPECT_EQ(configs[0].name, "berkmin");
  EXPECT_EQ(configs[0].options.decision_policy,
            DecisionPolicy::berkmin_top_clause);
  EXPECT_EQ(configs[0].options.activity_policy,
            ActivityPolicy::responsible_clauses);
}

TEST(PortfolioDiversify, ProducesRequestedCountWithDistinctSeeds) {
  const auto configs = portfolio::diversified_configs(20, 3);
  ASSERT_EQ(configs.size(), 20u);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_NE(configs[i].options.restart_policy, RestartPolicy::none)
        << configs[i].name << " would never reach an import point";
    for (std::size_t j = i + 1; j < configs.size(); ++j) {
      EXPECT_NE(configs[i].options.seed, configs[j].options.seed)
          << configs[i].name << " vs " << configs[j].name;
    }
  }
}

TEST(PortfolioDiversify, AroundKeepsTheBasePolicies) {
  const SolverOptions base = SolverOptions::chaff_like();
  const auto configs = portfolio::diversify_around(base, 6, 11);
  ASSERT_EQ(configs.size(), 6u);
  EXPECT_EQ(configs[0].options.restart_interval, base.restart_interval);
  for (const WorkerConfig& config : configs) {
    EXPECT_EQ(config.options.decision_policy, base.decision_policy);
    EXPECT_EQ(config.options.activity_policy, base.activity_policy);
    EXPECT_EQ(config.options.reduction_policy, base.reduction_policy);
  }
}

TEST(PortfolioDiversify, ShortLineupIsRefused) {
  portfolio::PortfolioOptions options;
  options.num_threads = 4;
  options.configs = portfolio::diversified_configs(2, 0);
  EXPECT_THROW(portfolio::PortfolioSolver{options}, std::invalid_argument);
  // A lineup of at least num_threads workers is taken, the extra truncated.
  options.configs = portfolio::diversified_configs(5, 0);
  portfolio::PortfolioSolver solver(options);
  solver.load(gen::pigeonhole(4));
  EXPECT_EQ(solver.solve(), SolveStatus::unsatisfiable);
  EXPECT_EQ(solver.race().workers.size(), 4u);
}

// ---- solving ----------------------------------------------------------

TEST(PortfolioSolve, AgreesWithDpllOnRandomFormulas) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const Cnf cnf = gen::random_ksat(30, 128, 3, seed);
    const reference::DpllResult expected = reference::dpll_solve(cnf);
    ASSERT_TRUE(expected.completed);

    PortfolioOptions opts;
    opts.num_threads = 4;
    opts.base_seed = seed;
    PortfolioSolver solver(opts);
    solver.load(cnf);
    const SolveStatus status = solver.solve();
    ASSERT_NE(status, SolveStatus::unknown) << "seed " << seed;
    EXPECT_EQ(status == SolveStatus::satisfiable, expected.satisfiable)
        << "seed " << seed;
    if (status == SolveStatus::satisfiable) {
      EXPECT_TRUE(cnf.is_satisfied_by(solver.model()))
          << "seed " << seed << " winner " << solver.race().winner;
      EXPECT_GE(solver.race().winner, 0);
    }
  }
}

TEST(PortfolioSolve, MatchesSequentialOnPigeonhole) {
  const Cnf cnf = gen::pigeonhole(6);
  // Independent oracle: the reference DPLL solver.
  EXPECT_FALSE(reference::dpll_solve(cnf).satisfiable);
  // Sequential BerkMin.
  EXPECT_EQ(testing::solve_with(cnf, SolverOptions::berkmin()),
            SolveStatus::unsatisfiable);
  // The portfolio must return the identical status.
  PortfolioOptions opts;
  opts.num_threads = 4;
  PortfolioSolver solver(opts);
  solver.load(cnf);
  EXPECT_EQ(solver.solve(), SolveStatus::unsatisfiable);
}

TEST(PortfolioSolve, ClauseSharingIsActive) {
  // Hard enough that every worker restarts several times before the
  // winner finishes, so clauses demonstrably flow both ways.
  PortfolioOptions opts;
  opts.num_threads = 4;
  PortfolioSolver solver(opts);
  solver.load(gen::pigeonhole(7));
  EXPECT_EQ(solver.solve(), SolveStatus::unsatisfiable);

  EXPECT_GT(solver.stats().exported_clauses, 0u);
  EXPECT_GT(solver.stats().imported_clauses, 0u);
  EXPECT_GT(solver.race().exchange.accepted, 0u);
  // Per-worker stats carry the same counters.
  std::uint64_t exported = 0;
  for (const auto& report : solver.race().workers) {
    exported += report.stats.exported_clauses;
  }
  EXPECT_EQ(exported, solver.stats().exported_clauses);
}

TEST(PortfolioSolve, SharingCanBeDisabled) {
  PortfolioOptions opts;
  opts.num_threads = 3;
  opts.share_clauses = false;
  PortfolioSolver solver(opts);
  solver.load(gen::pigeonhole(6));
  EXPECT_EQ(solver.solve(), SolveStatus::unsatisfiable);
  EXPECT_EQ(solver.stats().exported_clauses, 0u);
  EXPECT_EQ(solver.stats().imported_clauses, 0u);
}

TEST(PortfolioSolve, SingleThreadDegradesToOneWorker)  {
  PortfolioOptions opts;
  opts.num_threads = 1;
  PortfolioSolver solver(opts);
  solver.load(testing::make_cnf({{1, 2}, {-1, 2}, {1, -2}}));
  EXPECT_EQ(solver.solve(), SolveStatus::satisfiable);
  EXPECT_EQ(solver.race().winner, 0);
  EXPECT_EQ(solver.race().workers.size(), 1u);
}

TEST(PortfolioSolve, FailedAssumptionsComeFromTheWinner) {
  // x1 & x2 forced true; assuming ~x1 must fail with a subset naming it.
  PortfolioOptions opts;
  opts.num_threads = 2;
  PortfolioSolver solver(opts);
  solver.load(testing::make_cnf({{1}, {2}, {-1, 3}}));

  const auto assumptions = testing::lits({-1});
  EXPECT_EQ(solver.solve_with_assumptions(assumptions),
            SolveStatus::unsatisfiable);
  ASSERT_FALSE(solver.failed_assumptions().empty());
  EXPECT_EQ(solver.failed_assumptions()[0], from_dimacs(-1));

  // Without the hostile assumption the formula stays satisfiable.
  EXPECT_EQ(solver.solve(), SolveStatus::satisfiable);
}

TEST(PortfolioSolve, ModelHonorsAssumptions) {
  PortfolioOptions opts;
  opts.num_threads = 2;
  PortfolioSolver solver(opts);
  solver.load(testing::make_cnf({{1, 2}, {-1, 2}}));

  const auto assumptions = testing::lits({-1});
  ASSERT_EQ(solver.solve_with_assumptions(assumptions),
            SolveStatus::satisfiable);
  EXPECT_TRUE(solver.model_value(from_dimacs(-1)));
  EXPECT_TRUE(solver.model_value(from_dimacs(2)));
}

TEST(PortfolioSolve, RequestStopCancelsTheRace) {
  PortfolioOptions opts;
  opts.num_threads = 3;
  PortfolioSolver solver(opts);
  solver.load(gen::pigeonhole(10));  // far beyond this test's time budget

  SolveStatus status = SolveStatus::satisfiable;
  std::thread solving([&] { status = solver.solve(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  solver.request_stop();
  solving.join();
  EXPECT_EQ(status, SolveStatus::unknown);
  EXPECT_EQ(solver.race().winner, -1);
}

TEST(PortfolioSolve, StopRequestIsStickyAcrossSolveStart) {
  // A request_stop() racing (or preceding) solve() must not be lost:
  // the flag is latched until clear_stop(), exactly like Solver's.
  PortfolioOptions opts;
  opts.num_threads = 2;
  PortfolioSolver solver(opts);
  solver.load(gen::pigeonhole(8));

  solver.request_stop();
  EXPECT_EQ(solver.solve(), SolveStatus::unknown);
  EXPECT_EQ(solver.solve(), SolveStatus::unknown);  // still latched

  solver.clear_stop();
  EXPECT_EQ(solver.solve(), SolveStatus::unsatisfiable);
}

TEST(PortfolioSolve, BudgetExpiryReturnsUnknown) {
  PortfolioOptions opts;
  opts.num_threads = 2;
  PortfolioSolver solver(opts);
  solver.load(gen::pigeonhole(9));
  EXPECT_EQ(solver.solve(Budget::conflicts(10)), SolveStatus::unknown);
  EXPECT_EQ(solver.race().winner, -1);
  for (const WorkerReport& report : solver.race().workers) {
    EXPECT_EQ(report.status, SolveStatus::unknown) << report.name;
  }
}

// ---- warm workers across calls ----------------------------------------

TEST(PortfolioWarm, WorkersAndLearnedClausesPersistAcrossCalls) {
  // Regression: solve_with_assumptions used to rebuild and reload every
  // worker on every call, throwing away all learned clauses. Workers must
  // now stay warm: same Solver objects, cumulative stats, learned clauses
  // carried into the next call.
  PortfolioOptions opts;
  opts.num_threads = 2;
  PortfolioSolver solver(opts);
  // Hard enough to generate conflicts, satisfiable under both probes.
  solver.load(gen::random_ksat(50, 205, 3, 21));

  EXPECT_EQ(solver.worker(0), nullptr);

  const SolveStatus first =
      solver.solve_with_assumptions(testing::lits({1}));
  ASSERT_NE(first, SolveStatus::unknown);
  const Solver* worker0 = solver.worker(0);
  const Solver* worker1 = solver.worker(1);
  ASSERT_NE(worker0, nullptr);
  const std::uint64_t conflicts_before = worker0->stats().conflicts;
  const std::uint64_t learned_before = worker0->stats().learned_clauses;

  const SolveStatus second =
      solver.solve_with_assumptions(testing::lits({-1}));
  ASSERT_NE(second, SolveStatus::unknown);

  // Same engines, counters never reset: the second call resumed warm
  // workers instead of reloading.
  EXPECT_EQ(solver.worker(0), worker0);
  EXPECT_EQ(solver.worker(1), worker1);
  EXPECT_GE(worker0->stats().conflicts, conflicts_before);
  EXPECT_GE(worker0->stats().learned_clauses, learned_before);
  EXPECT_EQ(worker0->validate_invariants(), "");

  // Verdicts still match a cold sequential solver.
  for (const int probe : {1, -1}) {
    Solver plain;
    plain.load(gen::random_ksat(50, 205, 3, 21));
    const SolveStatus expected =
        plain.solve_with_assumptions(testing::lits({probe}));
    PortfolioSolver fresh(opts);
    fresh.load(gen::random_ksat(50, 205, 3, 21));
    EXPECT_EQ(fresh.solve_with_assumptions(testing::lits({probe})), expected);
  }
}

TEST(PortfolioWarm, ClausesAddedBetweenCallsReachWarmWorkers) {
  PortfolioOptions opts;
  opts.num_threads = 2;
  PortfolioSolver solver(opts);
  solver.load(testing::make_cnf({{1, 2}}));
  ASSERT_EQ(solver.solve(), SolveStatus::satisfiable);
  const Solver* worker0 = solver.worker(0);

  // Constrain the formula incrementally; the warm workers must see the
  // new clauses without a reload.
  solver.add_clause(testing::lits({-1}));
  solver.add_clause(testing::lits({-2}));
  EXPECT_EQ(solver.solve(), SolveStatus::unsatisfiable);
  EXPECT_EQ(solver.worker(0), worker0);
}

TEST(PortfolioWarm, SlicedPortfolioSolveResumesInsteadOfRestarting) {
  // Budget-sliced portfolio calls are what the SolverService issues for
  // escalated jobs: repeated small budgets must make monotone progress
  // and end in the same verdict as an unbounded run.
  PortfolioOptions opts;
  opts.num_threads = 2;
  PortfolioSolver solver(opts);
  solver.load(gen::pigeonhole(7));

  int slices = 0;
  SolveStatus status = SolveStatus::unknown;
  std::uint64_t conflicts_high_water = 0;
  while (status == SolveStatus::unknown) {
    status = solver.solve(Budget::conflicts(100));
    ++slices;
    std::uint64_t total = 0;
    for (const auto& report : solver.race().workers) total += report.stats.conflicts;
    ASSERT_GE(total, conflicts_high_water) << "worker stats were reset";
    conflicts_high_water = total;
    ASSERT_LT(slices, 10000) << "sliced portfolio run diverged";
  }
  EXPECT_EQ(status, SolveStatus::unsatisfiable);
  EXPECT_GT(slices, 1) << "hole(7) finished within one 100-conflict slice?";
}

TEST(PortfolioWarm, RepeatSolveAfterGlobalUnsatStaysUnsat) {
  PortfolioOptions opts;
  opts.num_threads = 2;
  PortfolioSolver solver(opts);
  solver.load(gen::pigeonhole(5));
  EXPECT_EQ(solver.solve(), SolveStatus::unsatisfiable);
  EXPECT_EQ(solver.solve(), SolveStatus::unsatisfiable);
}

// A worker importing a shared clause must behave exactly as if it had
// learned the clause itself: end-to-end round trip through Solver's
// import/export hooks rather than the exchange alone.
TEST(PortfolioSolve, ImportExportRoundTripThroughSolvers) {
  ClauseExchange exchange(2);
  const Cnf cnf = gen::random_ksat(30, 128, 3, 42);

  // Producer: solve and export every short learned clause.
  Solver producer;
  producer.set_learn_callback([&](std::span<const Lit> lits) {
    if (!lits.empty() && lits.size() <= exchange.limits().max_clause_length) {
      if (exchange.publish(0, lits)) producer.note_exported_clause();
    }
  });
  producer.load(cnf);
  const SolveStatus expected = producer.solve();
  ASSERT_NE(expected, SolveStatus::unknown);
  ASSERT_GT(producer.stats().exported_clauses, 0u);

  // Consumer: import the pool up front, then solve to the same answer.
  Solver consumer;
  consumer.load(cnf);
  std::vector<std::vector<Lit>> batch;
  ASSERT_GT(exchange.collect(1, &batch), 0u);
  for (const auto& clause : batch) {
    ASSERT_TRUE(consumer.import_clause(clause));
  }
  EXPECT_EQ(consumer.stats().imported_clauses, batch.size());
  EXPECT_EQ(consumer.solve(), expected);
  EXPECT_EQ(consumer.validate_invariants(), "");
}

}  // namespace
}  // namespace berkmin
