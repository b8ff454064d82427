// Seeded differential fuzz for the proof pipeline: random 3-SAT near the
// phase transition, solved with rotating configurations (including
// reduction-heavy ones that exercise deletions and strengthening). Every
// UNSAT verdict must come with a trace the in-tree checker verifies, a
// trimmed trace that re-verifies, and a core that re-solves UNSAT; every
// SAT verdict must come with a model the formula accepts.
#include <gtest/gtest.h>

#include "core/solver.h"
#include "gen/random_ksat.h"
#include "portfolio/portfolio.h"
#include "proof/drat_checker.h"
#include "proof/proof_writer.h"
#include "test_util.h"

namespace berkmin {
namespace {

SolverOptions fuzz_config(int seed) {
  // Rotate through the paper presets, then harden every third run with an
  // aggressive restart schedule so reductions (deletions, strengthening)
  // appear in the traces.
  const auto configs = testing::all_paper_configs();
  SolverOptions options = configs[static_cast<std::size_t>(seed) % configs.size()];
  if (seed % 3 == 0) options.restart_interval = 20;
  if (seed % 4 == 0) options.minimize_learned = true;
  options.seed = static_cast<std::uint64_t>(seed);
  return options;
}

class ProofFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ProofFuzz, TraceCoreAndModelAllCheck) {
  const int seed = GetParam();
  // Ratio ~4.6 skews unsatisfiable while keeping both outcomes common.
  const Cnf cnf = gen::random_ksat(/*num_vars=*/45, /*num_clauses=*/207,
                                   /*k=*/3, static_cast<std::uint64_t>(seed));

  proof::MemoryProofWriter writer;
  Solver solver(fuzz_config(seed));
  solver.set_proof(&writer);
  solver.load(cnf);
  const SolveStatus status = solver.solve();
  ASSERT_NE(status, SolveStatus::unknown);

  if (status == SolveStatus::satisfiable) {
    EXPECT_TRUE(cnf.is_satisfied_by(solver.model())) << "seed " << seed;
    EXPECT_FALSE(writer.proof().ends_with_empty());
    return;
  }

  ASSERT_TRUE(writer.proof().ends_with_empty()) << "seed " << seed;
  proof::DratChecker checker(cnf);
  const proof::CheckResult result = checker.check(writer.proof());
  ASSERT_TRUE(result.valid) << "seed " << seed << ": " << result.error;

  proof::DratChecker recheck(cnf);
  EXPECT_TRUE(recheck.check(checker.trimmed()).valid) << "seed " << seed;

  Solver resolver;
  resolver.load(proof::DratChecker::core_formula(cnf, checker.core()));
  EXPECT_EQ(resolver.solve(), SolveStatus::unsatisfiable) << "seed " << seed;
}

// The acceptance bar: at least 40 distinct CNFs.
INSTANTIATE_TEST_SUITE_P(Seeds, ProofFuzz, ::testing::Range(0, 44));

class PortfolioProofFuzz : public ::testing::TestWithParam<int> {};

TEST_P(PortfolioProofFuzz, SplicedTraceChecks) {
  const int seed = GetParam();
  const Cnf cnf = gen::random_ksat(/*num_vars=*/40, /*num_clauses=*/188,
                                   /*k=*/3,
                                   static_cast<std::uint64_t>(1000 + seed));
  portfolio::PortfolioOptions options;
  options.num_threads = 2 + (seed % 3);
  options.base_seed = static_cast<std::uint64_t>(seed);
  portfolio::PortfolioSolver portfolio(options);
  proof::MemoryProofWriter writer;
  portfolio.set_proof(&writer);
  portfolio.load(cnf);
  const SolveStatus status = portfolio.solve();
  ASSERT_NE(status, SolveStatus::unknown);

  if (status == SolveStatus::satisfiable) {
    EXPECT_TRUE(cnf.is_satisfied_by(portfolio.model())) << "seed " << seed;
    return;
  }
  const proof::Proof& trace = writer.proof();
  ASSERT_TRUE(trace.ends_with_empty()) << "seed " << seed;
  proof::DratChecker checker(cnf);
  const proof::CheckResult result = checker.check(trace);
  EXPECT_TRUE(result.valid) << "seed " << seed << ": " << result.error;
}

INSTANTIATE_TEST_SUITE_P(Seeds, PortfolioProofFuzz, ::testing::Range(0, 10));

// --- inprocessing variants --------------------------------------------------
// The same differential obligations with restart-time inprocessing fully
// enabled: every pass (probing, subsumption/strengthening, vivification,
// bounded variable elimination) rewrites the live database mid-solve, and
// the logged trace must still verify against the ORIGINAL formula.

class InprocessProofFuzz : public ::testing::TestWithParam<int> {};

TEST_P(InprocessProofFuzz, InprocessedTraceCoreAndModelAllCheck) {
  const int seed = GetParam();
  const Cnf cnf = gen::random_ksat(/*num_vars=*/45, /*num_clauses=*/207,
                                   /*k=*/3,
                                   static_cast<std::uint64_t>(2000 + seed));

  SolverOptions options = fuzz_config(seed);
  options.restart_interval = 20;  // restart (and inprocess) often
  options.inprocess.enabled = true;
  options.inprocess.interval_restarts = 1;
  options.inprocess.var_elim = true;

  proof::MemoryProofWriter writer;
  Solver solver(options);
  solver.set_proof(&writer);
  solver.load(cnf);
  const SolveStatus status = solver.solve();
  ASSERT_NE(status, SolveStatus::unknown);

  if (status == SolveStatus::satisfiable) {
    // extend_model must repair eliminated variables.
    EXPECT_TRUE(cnf.is_satisfied_by(solver.model())) << "seed " << seed;
    EXPECT_FALSE(writer.proof().ends_with_empty());
    return;
  }

  ASSERT_TRUE(writer.proof().ends_with_empty()) << "seed " << seed;
  proof::DratChecker checker(cnf);
  const proof::CheckResult result = checker.check(writer.proof());
  ASSERT_TRUE(result.valid) << "seed " << seed << ": " << result.error;

  proof::DratChecker recheck(cnf);
  EXPECT_TRUE(recheck.check(checker.trimmed()).valid) << "seed " << seed;

  Solver resolver;
  resolver.load(proof::DratChecker::core_formula(cnf, checker.core()));
  EXPECT_EQ(resolver.solve(), SolveStatus::unsatisfiable) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, InprocessProofFuzz, ::testing::Range(0, 22));

class PortfolioInprocessProofFuzz : public ::testing::TestWithParam<int> {};

TEST_P(PortfolioInprocessProofFuzz, SplicedTraceKeepsDeletionsAndChecks) {
  const int seed = GetParam();
  const Cnf cnf = gen::random_ksat(/*num_vars=*/40, /*num_clauses=*/188,
                                   /*k=*/3,
                                   static_cast<std::uint64_t>(3000 + seed));
  portfolio::PortfolioOptions options;
  options.num_threads = 2 + (seed % 3);
  options.base_seed = static_cast<std::uint64_t>(seed);
  options.configs = portfolio::diversified_configs(
      options.num_threads, options.base_seed);
  for (portfolio::WorkerConfig& config : options.configs) {
    // The portfolio keeps var_elim off on every worker.
    config.options.restart_interval = 20;
    config.options.inprocess.enabled = true;
    config.options.inprocess.interval_restarts = 1;
  }
  portfolio::PortfolioSolver portfolio(options);
  proof::MemoryProofWriter writer;
  portfolio.set_proof(&writer);
  portfolio.load(cnf);
  const SolveStatus status = portfolio.solve();
  ASSERT_NE(status, SolveStatus::unknown);

  if (status == SolveStatus::satisfiable) {
    EXPECT_TRUE(cnf.is_satisfied_by(portfolio.model())) << "seed " << seed;
    return;
  }
  const proof::Proof& trace = writer.proof();
  ASSERT_TRUE(trace.ends_with_empty()) << "seed " << seed;
  // Deletions survive splicing (deferred past every importer, not
  // dropped): whenever any worker deleted a clause, the spliced trace must
  // carry deletions and the checker's live set stays bounded. A clause is
  // logged as deleted when it leaves the database, which for subsumed and
  // vivified clauses is the collection ending the inprocessing pass — a
  // worker that refutes the formula inside the pass never gets there. (A
  // race won before the first reduction legitimately has none.)
  std::uint64_t deleted = 0;
  for (const WorkerReport& report : portfolio.race().workers) {
    deleted += report.stats.deleted_clauses;
  }
  if (deleted > 0) {
    EXPECT_GT(trace.num_deletes(), 0u) << "seed " << seed;
  }
  proof::DratChecker checker(cnf);
  const proof::CheckResult result = checker.check(trace);
  EXPECT_TRUE(result.valid) << "seed " << seed << ": " << result.error;
  // Short races may defer every deletion to the spliced tail, so the peak
  // can touch — but never exceed — the everything-stays-live ceiling.
  EXPECT_LE(result.peak_live_clauses, cnf.num_clauses() + result.checked_adds)
      << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, PortfolioInprocessProofFuzz,
                         ::testing::Range(0, 10));

}  // namespace
}  // namespace berkmin
