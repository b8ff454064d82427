// Proof composition across push/pop (ISSUE 5): the solver's accumulated
// DRAT trace — selectors elided, external numbering — certifies every
// UNSAT answer of an incremental run, including answers after pops. One
// live resumable DratChecker follows each script (proof::LiveCertifier):
// it verifies every trace step once, retires popped groups together with
// every lemma resting on them, and checks each answer's failed core.
#include <gtest/gtest.h>

#include <vector>

#include "cnf/icnf.h"
#include "core/solver.h"
#include "gen/pigeonhole.h"
#include "gen/random_ksat.h"
#include "proof/drat_checker.h"
#include "proof/live_certifier.h"
#include "proof/proof_writer.h"
#include "test_util.h"
#include "util/rng.h"

namespace berkmin {
namespace {

using testing::lits;
using testing::make_cnf;

TEST(IncrementalProof, GroupUnsatThenPopThenUnsatAgain) {
  // Query 1: UNSAT inside a group. Query 2 (after the pop): UNSAT from a
  // second group. Both answers must certify against their own formula,
  // the second despite the trace containing lemmas of the popped group.
  Solver solver;
  proof::LiveCertifier certifier(solver, /*log=*/true, /*check=*/true);
  const Cnf base = gen::random_ksat(12, 30, 3, 17);
  certifier.load(base);

  solver.push_group();
  const Cnf hole = gen::pigeonhole(4);
  for (const auto& clause : hole.clauses()) {
    std::vector<Lit> shifted;
    for (const Lit l : clause) {
      shifted.push_back(Lit(l.var() + base.num_vars(), l.is_negative()));
    }
    ASSERT_TRUE(certifier.add_clause(shifted));
  }
  ASSERT_EQ(solver.solve(), SolveStatus::unsatisfiable);
  ASSERT_TRUE(solver.ok());
  EXPECT_TRUE(certifier.answer_certified());

  certifier.pop_group(certifier.innermost_group());
  ASSERT_EQ(solver.solve(), SolveStatus::satisfiable);
  // The pigeonhole refutation rested on the popped group.
  EXPECT_FALSE(certifier.certifies({}));

  solver.push_group();
  for (const auto& clause :
       {lits({1, 2}), lits({1, -2}), lits({-1, 2}), lits({-1, -2})}) {
    ASSERT_TRUE(certifier.add_clause(clause));
  }
  ASSERT_EQ(solver.solve(), SolveStatus::unsatisfiable);
  ASSERT_TRUE(solver.ok());
  EXPECT_TRUE(certifier.answer_certified());
  certifier.pop_group(certifier.innermost_group());
  EXPECT_EQ(solver.solve(), SolveStatus::satisfiable);
}

TEST(IncrementalProof, RootRefutationTraceEndsWithEmptyAndChecksStrict) {
  // A group-independent refutation closes the projected trace with the
  // empty clause; with no pops in between it even passes the strict
  // checker against the active formula.
  proof::MemoryProofWriter writer;
  Solver solver;
  solver.set_proof(&writer);
  solver.load(gen::pigeonhole(5));
  solver.push_group();
  solver.add_clause({Lit::positive(30), Lit::positive(31)});
  ASSERT_EQ(solver.solve(), SolveStatus::unsatisfiable);
  EXPECT_FALSE(solver.ok());
  ASSERT_TRUE(writer.proof().ends_with_empty());

  Cnf formula = gen::pigeonhole(5);
  formula.add_clause({Lit::positive(30), Lit::positive(31)});
  proof::DratChecker checker(formula);
  const auto check = checker.check(writer.proof());
  EXPECT_TRUE(check.valid) << check.error;
}

TEST(IncrementalProof, SelectorsNeverAppearInTrace) {
  proof::MemoryProofWriter writer;
  Solver solver;
  solver.set_proof(&writer);
  solver.load(gen::random_ksat(10, 28, 3, 3));
  solver.push_group();
  solver.add_clause(lits({1, 2}));
  solver.add_clause(lits({-1, 2}));
  solver.add_clause(lits({-2, 1}));
  solver.add_clause(lits({-1, -2}));
  (void)solver.solve();
  solver.pop_group(solver.innermost_group());
  (void)solver.solve();
  for (const proof::ProofStep& step : writer.proof().steps) {
    for (const Lit l : step.lits) {
      EXPECT_LT(l.var(), solver.num_vars())
          << "trace leaked internal/selector variable " << l.var();
    }
  }
}

class IncrementalProofFuzz : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalProofFuzz, EveryUnsatAnswerCertifies) {
  // Random push/add/pop/solve scripts with proof logging: every UNSAT
  // answer (assumption-dependent or not, before or after pops) must
  // certify against the formula active at that moment.
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  Rng rng(seed * 77 + 5);
  Solver solver;
  proof::LiveCertifier certifier(solver, /*log=*/true, /*check=*/true);

  const int num_vars = 9 + static_cast<int>(seed % 4);
  for (int op = 0; op < 26; ++op) {
    const std::uint64_t pick = rng.below(10);
    if (pick < 4) {
      const int count = 1 + static_cast<int>(rng.below(3));
      for (int i = 0; i < count; ++i) {
        std::vector<Lit> clause;
        const int len = 1 + static_cast<int>(rng.below(3));
        for (int k = 0; k < len; ++k) {
          clause.push_back(
              Lit(static_cast<Var>(
                      rng.below(static_cast<std::uint64_t>(num_vars))),
                  rng.coin()));
        }
        (void)certifier.add_clause(clause);
      }
    } else if (pick < 6) {
      solver.push_group();
    } else if (pick < 8 && solver.num_groups() > 0) {
      certifier.pop_group(certifier.innermost_group());
    } else {
      std::vector<Lit> assumptions;
      for (std::uint64_t i = rng.below(3); i > 0; --i) {
        assumptions.push_back(
            Lit(static_cast<Var>(
                    rng.below(static_cast<std::uint64_t>(num_vars))),
                rng.coin()));
      }
      const SolveStatus status = solver.solve_with_assumptions(assumptions);
      if (status == SolveStatus::unsatisfiable) {
        ASSERT_TRUE(certifier.answer_certified())
            << "seed " << seed << " op " << op;
      } else if (status == SolveStatus::satisfiable) {
        ASSERT_FALSE(certifier.certifies(assumptions))
            << "seed " << seed << " op " << op
            << ": checker certified a satisfiable assumption set";
      }
      if (!solver.ok()) break;  // permanently refuted: script exhausted
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalProofFuzz,
                         ::testing::Range(0, 40));

}  // namespace
}  // namespace berkmin
