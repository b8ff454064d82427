// Proof logging and checking through the solver: every clause the solver
// learns must be a RUP consequence of the evolving database — checked
// online by a resumable proof::DratChecker that consumes the trace between
// budgeted solve slices — and the DRAT text a solver writes must replay
// through the checker offline, deletions included.
#include <gtest/gtest.h>

#include <sstream>

#include "core/solver.h"
#include "gen/parity.h"
#include "gen/pigeonhole.h"
#include "proof/drat_checker.h"
#include "proof/drat_file.h"
#include "proof/proof_writer.h"
#include "test_util.h"

namespace berkmin {
namespace {

using testing::lits;
using testing::make_cnf;

// A resumable checker whose database starts as `cnf` (root formula).
proof::DratChecker live_checker(const Cnf& cnf) {
  proof::DratChecker checker;
  for (const auto& clause : cnf.clauses()) checker.add_original(clause);
  return checker;
}

TEST(RupChecker, AcceptsUnitPropagationConsequence) {
  // (~1 2)(~2 3): clause (~1 3) is RUP.
  proof::DratChecker checker = live_checker(make_cnf({{-1, 2}, {-2, 3}}));
  proof::Proof trace;
  trace.add(lits({-1, 3}));
  checker.consume(trace);
  EXPECT_EQ(checker.stats().checked_adds, 1u);
  EXPECT_EQ(checker.stats().dropped_adds, 0u);
  EXPECT_TRUE(checker.lemma_live(0));
}

TEST(RupChecker, RejectsNonConsequence) {
  proof::DratChecker checker = live_checker(make_cnf({{-1, 2}, {-2, 3}}));
  proof::Proof trace;
  trace.add(lits({1, 2}));
  checker.consume(trace);
  EXPECT_EQ(checker.stats().dropped_adds, 1u);
  EXPECT_EQ(checker.stats().first_dropped_step, 0u);
  EXPECT_FALSE(checker.lemma_live(0));
}

TEST(RupChecker, ChainsThroughAddedClauses) {
  proof::DratChecker checker =
      live_checker(make_cnf({{1, 2}, {1, -2}, {-1, 3}, {-1, -3}}));
  proof::Proof trace;
  trace.add(lits({1}));
  // With unit 1 stored the database propagates to a root conflict: the
  // empty clause after it holds without another check.
  trace.add({});
  checker.consume(trace);
  EXPECT_EQ(checker.stats().checked_adds, 1u);
  EXPECT_EQ(checker.stats().steps_consumed, 2u);
  EXPECT_TRUE(checker.refuted());
  EXPECT_TRUE(checker.answer_holds(trace, {}));
}

TEST(RupChecker, RemoveDeletesOneCopy) {
  proof::DratChecker checker = live_checker(make_cnf({{-1, 2}, {-2, 3}}));
  proof::Proof trace;
  trace.del(lits({-1, 2}));
  trace.del(lits({-1, 2}));  // nothing live left to match
  trace.add(lits({-1, 3}));  // no longer RUP without (~1 2)
  checker.consume(trace);
  EXPECT_EQ(checker.stats().deletions, 2u);
  EXPECT_EQ(checker.stats().skipped_deletions, 1u);
  EXPECT_EQ(checker.stats().dropped_adds, 1u);
}

TEST(RupChecker, TautologyIsVacuouslyAccepted) {
  proof::DratChecker checker = live_checker(make_cnf({{1, 2}}));
  proof::Proof trace;
  trace.add(lits({3, -3}));
  checker.consume(trace);
  EXPECT_EQ(checker.stats().add_checks, 0u);
  EXPECT_EQ(checker.stats().dropped_adds, 0u);
}

// Solves `cnf` in budgeted slices and feeds the trace to a live checker
// after every slice, so each learned clause is verified online against
// the database as it stood when the solver derived it.
struct OnlineRun {
  SolveStatus status = SolveStatus::unknown;
  proof::CheckerStats checked;
  bool certified = false;
  SolverStats solver;
};

OnlineRun solve_online(const Cnf& cnf, const SolverOptions& options) {
  proof::MemoryProofWriter writer;
  Solver solver(options);
  solver.set_proof(&writer);
  solver.load(cnf);
  proof::DratChecker checker = live_checker(cnf);
  Budget slice;
  slice.max_conflicts = 50;
  OnlineRun run;
  while (run.status == SolveStatus::unknown) {
    run.status = solver.solve_with_assumptions({}, slice);
    checker.consume(writer.proof());
  }
  run.certified = checker.answer_holds(writer.proof(), {});
  run.checked = checker.stats();
  run.solver = solver.stats();
  return run;
}

TEST(OnlineRup, PigeonholeAllLearnedClausesAreRup) {
  const OnlineRun run = solve_online(gen::pigeonhole(4), SolverOptions{});
  EXPECT_EQ(run.status, SolveStatus::unsatisfiable);
  EXPECT_EQ(run.checked.dropped_adds, 0u);
  EXPECT_EQ(run.checked.skipped_deletions, 0u);
  EXPECT_GT(run.checked.checked_adds, 0u);
  EXPECT_TRUE(run.certified);
  EXPECT_GT(run.solver.learned_clauses, 0u);
}

TEST(OnlineRup, WithAggressiveReductions) {
  SolverOptions options;
  options.restart_interval = 15;  // many reductions: deletions must match
  const OnlineRun run = solve_online(gen::pigeonhole(5), options);
  EXPECT_EQ(run.status, SolveStatus::unsatisfiable);
  EXPECT_EQ(run.checked.dropped_adds, 0u);
  EXPECT_GT(run.checked.deletions, 0u);
  EXPECT_EQ(run.checked.skipped_deletions, 0u);
  EXPECT_TRUE(run.certified);
  EXPECT_GT(run.solver.deleted_clauses, 0u);
}

class OnlineRupConfigs : public ::testing::TestWithParam<int> {};

TEST_P(OnlineRupConfigs, UnsatParityProofChecks) {
  gen::ParityParams params;
  params.num_vars = 10;
  params.num_equations = 14;
  params.equation_size = 3;
  params.satisfiable = false;
  params.seed = static_cast<std::uint64_t>(GetParam());
  const Cnf cnf = gen::parity_instance(params);

  const auto configs = testing::all_paper_configs();
  const SolverOptions& options = configs[GetParam() % configs.size()];
  const OnlineRun run = solve_online(cnf, options);
  EXPECT_EQ(run.status, SolveStatus::unsatisfiable) << options.describe();
  EXPECT_EQ(run.checked.dropped_adds, 0u) << options.describe();
  EXPECT_TRUE(run.certified) << options.describe();
}

INSTANTIATE_TEST_SUITE_P(Seeds, OnlineRupConfigs, ::testing::Range(0, 12));

// Runs `cnf` to completion with a textual DRAT writer attached.
std::string solve_with_text_proof(const Cnf& cnf, const SolverOptions& options,
                                  std::uint64_t* deleted = nullptr) {
  std::ostringstream text;
  proof::TextDratWriter writer(text);
  Solver solver(options);
  solver.set_proof(&writer);
  solver.load(cnf);
  EXPECT_EQ(solver.solve(), SolveStatus::unsatisfiable);
  EXPECT_GT(writer.num_added(), 0u);
  if (deleted != nullptr) *deleted = writer.num_deleted();
  return text.str();
}

TEST(DratWriter, EmitsTextualProof) {
  const std::string text = solve_with_text_proof(
      make_cnf({{1, 2}, {1, -2}, {-1, 3}, {-1, -3}}), SolverOptions{});
  EXPECT_NE(text.find(" 0\n"), std::string::npos);
  // The refutation ends with the empty clause.
  EXPECT_GE(text.size(), 2u);
  EXPECT_EQ(text.substr(text.size() - 2), "0\n");
}

TEST(DratWriter, DeletionLinesPrefixed) {
  SolverOptions options;
  options.restart_interval = 15;
  std::uint64_t deleted = 0;
  const std::string text =
      solve_with_text_proof(gen::pigeonhole(5), options, &deleted);
  if (deleted > 0) {
    EXPECT_NE(text.find("d "), std::string::npos);
  }
}

TEST(DratReplay, FullProofVerifiesOffline) {
  // Emit a DRAT proof to text, parse it back and verify it with a fresh
  // checker exactly as an external checker would.
  const Cnf cnf = gen::pigeonhole(4);
  SolverOptions options;
  options.restart_interval = 25;
  std::istringstream in(solve_with_text_proof(cnf, options));
  proof::Proof trace;
  std::string error;
  ASSERT_TRUE(proof::read_drat(in, proof::DratFormat::text, &trace, &error))
      << error;
  proof::DratChecker checker(cnf);
  const proof::CheckResult result = checker.check(trace);
  EXPECT_TRUE(result.valid) << result.error;
  EXPECT_GT(result.checked_adds, 0u);
  // Every `d` line names a clause that is live at that point.
  EXPECT_EQ(result.skipped_deletions, 0u);
}

}  // namespace
}  // namespace berkmin
