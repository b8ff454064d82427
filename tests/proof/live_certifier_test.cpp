// proof::LiveCertifier, the one owner of the certified-session protocol:
// it attaches its own trace to the engine, before every clause or group
// operation its checker has consumed the whole trace logged so far, and
// without a checker every operation still reaches the engine with the
// engine's own contract.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/solver.h"
#include "gen/pigeonhole.h"
#include "gen/random_ksat.h"
#include "portfolio/portfolio.h"
#include "proof/live_certifier.h"
#include "test_util.h"
#include "util/rng.h"

namespace berkmin {
namespace {

using testing::lits;

TEST(LiveCertifier, SyncsTheCheckerBeforeEveryOperation) {
  // Between operations the solver logs lemmas; each operation must first
  // hand every one of them to the checker, so it is verified against the
  // formula it was derived in. A step that instead reached the checker
  // after the operation would be checked against the wrong database.
  Solver solver;
  proof::LiveCertifier certifier(solver, /*log=*/true, /*check=*/true);
  Rng rng(7);
  const auto grow_trace = [&] {
    const std::size_t before = certifier.trace().size();
    for (int query = 0; query < 500; ++query) {
      std::vector<Lit> assumptions;
      for (int k = 0; k < 4; ++k) {
        assumptions.push_back(
            Lit(static_cast<Var>(rng.below(40)), rng.coin()));
      }
      (void)solver.solve_with_assumptions(assumptions);
      if (certifier.trace().size() > before) return true;
    }
    return false;
  };
  // Runs one operation right after the trace grew and checks that the
  // checker had read the trace up to that point.
  const auto expect_synced = [&](const char* what, const auto& operation) {
    ASSERT_TRUE(grow_trace()) << what;
    const std::size_t logged = certifier.trace().size();
    ASSERT_TRUE(operation()) << what;
    EXPECT_EQ(certifier.checker().watermark(), logged) << what;
  };

  ASSERT_TRUE(certifier.load(gen::random_ksat(40, 140, 3, 11)));
  expect_synced("load", [&] {
    return certifier.load(gen::random_ksat(40, 10, 3, 12));
  });
  expect_synced("add_clause", [&] {
    return certifier.add_clause(lits({1, 2, 3}));
  });
  const GroupId group = solver.push_group();
  ASSERT_NE(group, no_group);
  ASSERT_TRUE(certifier.add_clause(lits({-4, 5, 6})));
  expect_synced("add_clause_to_group", [&] {
    return certifier.add_clause_to_group(group, lits({4, -5, 7}));
  });
  expect_synced("park",
                [&] { return certifier.set_group_active(group, false); });
  expect_synced("revive",
                [&] { return certifier.set_group_active(group, true); });
  expect_synced("pop_group(id)", [&] { return certifier.pop_group(group); });
  ASSERT_NE(solver.push_group(), no_group);
  expect_synced("pop_group(innermost)", [&] {
    return certifier.pop_group(certifier.innermost_group());
  });
  ASSERT_TRUE(solver.ok());
}

TEST(LiveCertifier, DeadHandlesAreRefusedOnBothSides) {
  Solver solver;
  proof::LiveCertifier certifier(solver, /*log=*/true, /*check=*/true);
  ASSERT_TRUE(certifier.add_clause(lits({1})));
  const GroupId popped = solver.push_group();
  ASSERT_TRUE(certifier.pop_group(popped));
  for (const GroupId dead : {popped, popped + 1}) {
    EXPECT_FALSE(certifier.pop_group(dead)) << "group " << dead;
    EXPECT_FALSE(certifier.add_clause_to_group(dead, lits({-1})))
        << "group " << dead;
    EXPECT_FALSE(certifier.set_group_active(dead, false)) << "group " << dead;
  }
  EXPECT_FALSE(certifier.pop_group(certifier.innermost_group()));
  // Had (-1) reached the checker in a group of its own, that group would
  // refute the database there.
  ASSERT_EQ(solver.solve(), SolveStatus::satisfiable);
  EXPECT_FALSE(certifier.certifies({}));
}

TEST(LiveCertifier, AttachesItsOwnTraceToTheEngine) {
  // The caller never attaches a writer: the certifier logs into a trace of
  // its own and certifies the engine's refutation with it.
  Solver solver;
  proof::LiveCertifier certifier(solver, /*log=*/true, /*check=*/true);
  ASSERT_TRUE(certifier.load(gen::pigeonhole(5)));
  ASSERT_EQ(solver.solve(), SolveStatus::unsatisfiable);
  EXPECT_TRUE(certifier.trace().ends_with_empty());
  EXPECT_TRUE(certifier.answer_certified());
}

TEST(LiveCertifier, CertifiesAPortfolioRefutation) {
  // The same protocol over a racing portfolio: its spliced trace reaches
  // the certifier's writer once the formula is refuted.
  portfolio::PortfolioSolver race(portfolio::PortfolioOptions{.num_threads = 2});
  proof::LiveCertifier certifier(race, /*log=*/true, /*check=*/true);
  ASSERT_TRUE(certifier.load(gen::pigeonhole(5)));
  ASSERT_EQ(race.solve(), SolveStatus::unsatisfiable);
  EXPECT_TRUE(certifier.trace().ends_with_empty());
  EXPECT_TRUE(certifier.answer_certified());
}

TEST(LiveCertifier, WithoutACheckerOperationsPassThrough) {
  // No trace: nothing is logged or checked, and the engine keeps its own
  // contract (named groups, LIFO pop, refusals).
  Solver solver;
  proof::LiveCertifier certifier(solver, /*log=*/false, /*check=*/true);
  EXPECT_FALSE(certifier.checking());
  ASSERT_TRUE(certifier.add_clause(lits({1, 2})));
  const GroupId group = solver.push_group();
  ASSERT_TRUE(certifier.add_clause(lits({-1})));
  ASSERT_TRUE(certifier.add_clause_to_group(group, lits({-2})));
  EXPECT_EQ(solver.solve(), SolveStatus::unsatisfiable);
  ASSERT_TRUE(certifier.set_group_active(group, false));
  EXPECT_EQ(solver.solve(), SolveStatus::satisfiable);
  ASSERT_TRUE(certifier.pop_group(certifier.innermost_group()));
  EXPECT_FALSE(solver.group_is_live(group));
  EXPECT_FALSE(certifier.pop_group(certifier.innermost_group()));
  EXPECT_EQ(solver.solve(), SolveStatus::satisfiable);
}

}  // namespace
}  // namespace berkmin
