// The resumable DratChecker on hand-written traces: group-tagged originals,
// retired and parked groups, the consume() watermark, and answer queries.
// Every soundness rule of drat_checker.h gets a trace here that a checker
// trusting the solver's own deletions would get wrong.
#include <gtest/gtest.h>

#include "core/solver.h"
#include "gen/random_ksat.h"
#include "incremental/live_certifier.h"
#include "proof/drat_checker.h"
#include "test_util.h"
#include "util/rng.h"

namespace berkmin {
namespace {

using testing::lits;

constexpr GroupId kG = 0;
constexpr GroupId kH = 1;

void add_originals(proof::DratChecker& checker,
                   std::initializer_list<std::initializer_list<int>> clauses,
                   GroupId group = no_group) {
  for (const auto& clause : clauses) checker.add_original(lits(clause), group);
}

TEST(ResumableChecker, RetiredGroupLemmaCannotSupportAnAnswer) {
  // (2) is derived from G's unit (1). The trace never deletes it, yet once
  // G is retired it must not certify anything.
  proof::DratChecker checker;
  add_originals(checker, {{-1, 2}});
  add_originals(checker, {{1}}, kG);
  proof::Proof trace;
  trace.add(lits({2}));
  checker.consume(trace);
  ASSERT_TRUE(checker.lemma_live(0));
  EXPECT_TRUE(checker.answer_holds(trace, lits({-2})));

  checker.retire_group(kG);
  EXPECT_FALSE(checker.lemma_live(0));
  EXPECT_FALSE(checker.answer_holds(trace, lits({-2})));
  // A replay rebuilds from the live originals; it must not revive (2).
  EXPECT_EQ(checker.stats().replays, 1u);
  EXPECT_FALSE(checker.lemma_live(0));
}

TEST(ResumableChecker, ParkAndReviveRestoreExactlyTheValidLemmas) {
  proof::DratChecker checker;
  add_originals(checker, {{-1, 3}, {-1, -2, 5}, {7, 8}, {-8, 9}});
  add_originals(checker, {{1}}, kG);
  add_originals(checker, {{2}}, kH);
  proof::Proof trace;
  trace.add(lits({3}));     // rests on G
  trace.add(lits({2, 4}));  // rests on H
  trace.add(lits({5}));     // rests on G and H
  trace.add(lits({7, 9}));  // rests on the root formula only
  checker.consume(trace);
  const auto valid = [&] {
    std::vector<bool> v;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      v.push_back(checker.lemma_live(i));
    }
    return v;
  };
  ASSERT_EQ(valid(), (std::vector<bool>{true, true, true, true}));

  checker.set_group_active(kG, false);
  EXPECT_EQ(valid(), (std::vector<bool>{false, true, false, true}));
  EXPECT_TRUE(checker.answer_holds(trace, lits({-7, -9})));
  checker.set_group_active(kH, false);
  EXPECT_EQ(valid(), (std::vector<bool>{false, false, false, true}));

  checker.set_group_active(kG, true);
  EXPECT_EQ(valid(), (std::vector<bool>{true, false, false, true}));
  EXPECT_TRUE(checker.answer_holds(trace, lits({-3})));
  checker.set_group_active(kH, true);
  EXPECT_EQ(valid(), (std::vector<bool>{true, true, true, true}));
  EXPECT_TRUE(checker.answer_holds(trace, lits({-5})));
  // Every answer held on the live state: nothing was rebuilt.
  EXPECT_EQ(checker.stats().replays, 0u);
}

TEST(ResumableChecker, GroupRootConflictDoesNotSurviveThePop) {
  proof::DratChecker checker;
  add_originals(checker, {{1, 2}});
  add_originals(checker, {{-1}, {-2}}, kG);
  proof::Proof trace;
  trace.add(lits({5}));  // holds only because the database is refuted
  checker.consume(trace);
  ASSERT_TRUE(checker.refuted());
  EXPECT_TRUE(checker.answer_holds(trace, {}));
  EXPECT_TRUE(checker.lemma_live(0));

  checker.retire_group(kG);
  EXPECT_FALSE(checker.refuted());
  EXPECT_FALSE(checker.lemma_live(0));
  EXPECT_FALSE(checker.answer_holds(trace, {}));
  EXPECT_FALSE(checker.answer_holds(trace, lits({-5})));
}

TEST(ResumableChecker, NonRupAdditionNeverSupportsAnAnswer) {
  proof::DratChecker checker;
  add_originals(checker, {{1, 2}, {-3, 4}});
  add_originals(checker, {{3}}, kG);
  proof::Proof trace;
  trace.add(lits({1}));     // not RUP: dropped
  trace.add(lits({1, 5}));  // RUP only with the dropped (1): dropped too
  trace.add(lits({4}));     // rests on G
  checker.consume(trace);
  EXPECT_EQ(checker.stats().dropped_adds, 2u);
  EXPECT_EQ(checker.stats().first_dropped_step, 0u);
  EXPECT_FALSE(checker.lemma_live(0));
  EXPECT_FALSE(checker.answer_holds(trace, lits({-1})));

  // Parking G invalidates (4), so a failed answer now falls back to a
  // replay — which re-checks (1) against the live formula and must drop
  // it again.
  checker.set_group_active(kG, false);
  EXPECT_FALSE(checker.answer_holds(trace, lits({-1})));
  EXPECT_FALSE(checker.answer_holds(trace, lits({-1, -5})));
  EXPECT_GE(checker.stats().replays, 1u);
  EXPECT_FALSE(checker.lemma_live(0));
  EXPECT_FALSE(checker.lemma_live(1));
}

TEST(ResumableChecker, RetiredCopyAbsorbsTheSolversDeletion) {
  // C = (1 2) is in the root formula and in G. After G's pop the solver
  // deletes its group copy of C, which the trace logs as plain `d 1 2`:
  // that must not take the root copy out of propagation.
  proof::DratChecker checker;
  add_originals(checker, {{1, 2}, {-1, 3}, {-2, 3}, {-5, 6}});
  add_originals(checker, {{1, 2}, {5}}, kG);
  proof::Proof trace;
  trace.add(lits({6}));  // rests on G
  checker.consume(trace);
  checker.retire_group(kG);
  trace.del(lits({1, 2}));
  EXPECT_TRUE(checker.answer_holds(trace, lits({-3})));  // needs C
  EXPECT_EQ(checker.stats().replays, 0u);
  EXPECT_EQ(checker.stats().skipped_deletions, 0u);

  // A replay rebuilds without G's originals; the deletion still lands on
  // the retired copy, not on the root one.
  EXPECT_FALSE(checker.answer_holds(trace, lits({-6})));
  ASSERT_EQ(checker.stats().replays, 1u);
  EXPECT_TRUE(checker.answer_holds(trace, lits({-3})));
}

TEST(ResumableChecker, EachStepIsVerifiedOncePerSession) {
  // A deterministic 50-answer session with pushes, pops and assumption
  // queries. The checker must read every trace step exactly once, RUP-check
  // each addition at most once, and never fall back to a replay.
  Solver solver;
  testing::LiveCertifier certifier(solver);
  certifier.load(gen::random_ksat(40, 150, 3, 11));
  Rng rng(2024);
  int unsat_answers = 0;
  for (int query = 0; unsat_answers < 50 && query < 2000; ++query) {
    if (query % 7 == 0) {
      if (solver.num_groups() > 2) {
        ASSERT_TRUE(certifier.pop_group());
      }
      solver.push_group();
      for (int i = 0; i < 6; ++i) {
        std::vector<Lit> clause;
        for (int k = 0; k < 3; ++k) {
          clause.push_back(Lit(static_cast<Var>(rng.below(40)), rng.coin()));
        }
        (void)certifier.add_clause(clause);
      }
    }
    std::vector<Lit> assumptions;
    for (int k = 0; k < 4; ++k) {
      assumptions.push_back(Lit(static_cast<Var>(rng.below(40)), rng.coin()));
    }
    if (solver.solve_with_assumptions(assumptions) ==
        SolveStatus::unsatisfiable) {
      ++unsat_answers;
      ASSERT_TRUE(certifier.answer_certified()) << "query " << query;
    }
    if (!solver.ok()) break;
  }
  ASSERT_EQ(unsat_answers, 50);

  const proof::CheckerStats& stats = certifier.checker().stats();
  EXPECT_EQ(stats.replays, 0u);
  EXPECT_EQ(stats.steps_consumed, certifier.trace().size());
  EXPECT_LE(stats.add_checks, certifier.trace().num_adds());
  EXPECT_EQ(certifier.checker().watermark(), certifier.trace().size());
}

}  // namespace
}  // namespace berkmin
