// Spliced portfolio proofs: racing diversified workers with clause
// sharing must still hand the writer attached with set_proof one DRAT
// trace the in-tree checker verifies.
#include <gtest/gtest.h>

#include <algorithm>

#include "gen/parity.h"
#include "gen/pigeonhole.h"
#include "portfolio/portfolio.h"
#include "proof/drat_checker.h"
#include "proof/proof_writer.h"
#include "test_util.h"

namespace berkmin {
namespace {

bool is_empty_addition(const proof::ProofStep& step) {
  return step.is_add() && step.lits.empty();
}

TEST(PortfolioProof, SplicedUnsatTraceVerifies) {
  const Cnf cnf = gen::pigeonhole(6);
  portfolio::PortfolioOptions options;
  options.num_threads = 4;
  options.share_clauses = true;
  // Every restart reduces; restarting every 50 conflicts makes the race
  // reduce long before pigeonhole(6) is refuted.
  options.configs =
      portfolio::diversified_configs(options.num_threads, options.base_seed);
  for (portfolio::WorkerConfig& config : options.configs) {
    config.options.restart_interval = 50;
  }
  portfolio::PortfolioSolver portfolio(options);
  proof::MemoryProofWriter writer;
  portfolio.set_proof(&writer);
  portfolio.load(cnf);
  ASSERT_EQ(portfolio.solve(), SolveStatus::unsatisfiable);

  const proof::Proof& trace = writer.proof();
  ASSERT_TRUE(trace.ends_with_empty());
  proof::DratChecker checker(cnf);
  const proof::CheckResult result = checker.check(trace);
  EXPECT_TRUE(result.valid) << result.error;

  // Per-worker deletions survive splicing (deferred, not dropped), so the
  // checker's live database stays bounded below the trace's total adds.
  // Each deleted clause is logged as it is dropped, so the claim holds
  // whenever some worker deleted one; a race won before any worker's
  // first reduction has nothing to show.
  std::uint64_t deleted = 0;
  for (const WorkerReport& report : portfolio.race().workers) {
    deleted += report.stats.deleted_clauses;
  }
  if (deleted > 0) {
    EXPECT_GT(trace.num_deletes(), 0u);
    EXPECT_LT(result.peak_live_clauses,
              cnf.num_clauses() + result.checked_adds);
  }
}

TEST(PortfolioProof, ThreeWorkerTraceHoldsTheEmptyClause) {
  const Cnf cnf = gen::pigeonhole(5);
  portfolio::PortfolioSolver portfolio(
      portfolio::PortfolioOptions{.num_threads = 3});
  proof::MemoryProofWriter writer;
  portfolio.set_proof(&writer);
  portfolio.load(cnf);
  ASSERT_EQ(portfolio.solve(), SolveStatus::unsatisfiable);

  const proof::Proof& trace = writer.proof();
  ASSERT_FALSE(trace.empty());
  // The race ran in parallel: at least the winner contributed.
  EXPECT_TRUE(std::any_of(trace.steps.begin(), trace.steps.end(),
                          is_empty_addition));
}

TEST(PortfolioProof, CoreFromSplicedProofResolvesUnsat) {
  const Cnf cnf = gen::pigeonhole(5);
  portfolio::PortfolioSolver portfolio(
      portfolio::PortfolioOptions{.num_threads = 4});
  proof::MemoryProofWriter writer;
  portfolio.set_proof(&writer);
  portfolio.load(cnf);
  ASSERT_EQ(portfolio.solve(), SolveStatus::unsatisfiable);

  proof::DratChecker checker(cnf);
  ASSERT_TRUE(checker.check(writer.proof()).valid);
  Solver resolver;
  resolver.load(proof::DratChecker::core_formula(cnf, checker.core()));
  EXPECT_EQ(resolver.solve(), SolveStatus::unsatisfiable);
}

TEST(PortfolioProof, SatisfiableRaceLeavesTraceOpen) {
  gen::ParityParams params;
  params.num_vars = 12;
  params.num_equations = 10;
  params.equation_size = 3;
  params.satisfiable = true;
  params.seed = 5;
  const Cnf cnf = gen::parity_instance(params);

  portfolio::PortfolioSolver portfolio(
      portfolio::PortfolioOptions{.num_threads = 3});
  proof::MemoryProofWriter writer;
  portfolio.set_proof(&writer);
  portfolio.load(cnf);
  ASSERT_EQ(portfolio.solve(), SolveStatus::satisfiable);
  EXPECT_FALSE(writer.proof().ends_with_empty());
  EXPECT_TRUE(cnf.is_satisfied_by(portfolio.model()));
}

TEST(PortfolioProof, LoggingOffYieldsEmptyTrace) {
  // Without a writer no worker logs anything, and groups stay available.
  portfolio::PortfolioSolver portfolio(
      portfolio::PortfolioOptions{.num_threads = 2});
  portfolio.load(gen::pigeonhole(4));
  ASSERT_EQ(portfolio.solve(), SolveStatus::unsatisfiable);
  for (int i = 0; i < 2; ++i) EXPECT_EQ(portfolio.worker(i)->proof(), nullptr);
  EXPECT_NE(portfolio.push_group(), no_group);
}

TEST(PortfolioProof, AttachedWriterRefusesGroups) {
  portfolio::PortfolioSolver portfolio(
      portfolio::PortfolioOptions{.num_threads = 2});
  proof::MemoryProofWriter writer;
  portfolio.set_proof(&writer);
  EXPECT_EQ(portfolio.push_group(), no_group);
  EXPECT_EQ(portfolio.num_groups(), 0);
}

TEST(PortfolioProof, WarmReuseKeepsAccumulatingOneProof) {
  // Workers stay warm across solves; after the second (still UNSAT)
  // answer the writer holds one complete checkable trace: the refutation
  // is replayed once, not once per solve.
  const Cnf cnf = gen::pigeonhole(5);
  portfolio::PortfolioSolver portfolio(
      portfolio::PortfolioOptions{.num_threads = 2});
  proof::MemoryProofWriter writer;
  portfolio.set_proof(&writer);
  portfolio.load(cnf);
  ASSERT_EQ(portfolio.solve(), SolveStatus::unsatisfiable);
  ASSERT_EQ(portfolio.solve(), SolveStatus::unsatisfiable);

  const proof::Proof& trace = writer.proof();
  EXPECT_EQ(std::count_if(trace.steps.begin(), trace.steps.end(),
                          is_empty_addition),
            1);
  proof::DratChecker checker(cnf);
  EXPECT_TRUE(checker.check(trace).valid);
}

}  // namespace
}  // namespace berkmin
