// The resumable DratChecker on hand-written traces: group-tagged originals,
// retired and parked groups, the consume() watermark, and answer queries.
// Every soundness rule of drat_checker.h gets a trace here that a checker
// trusting the solver's own deletions would get wrong.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/solver.h"
#include "gen/random_ksat.h"
#include "proof/drat_checker.h"
#include "proof/live_certifier.h"
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
  proof::LiveCertifier certifier(solver, /*log=*/true, /*check=*/true);
  certifier.load(gen::random_ksat(40, 150, 3, 11));
  Rng rng(2024);
  int unsat_answers = 0;
  for (int query = 0; unsat_answers < 50 && query < 2000; ++query) {
    if (query % 7 == 0) {
      if (solver.num_groups() > 2) {
        ASSERT_TRUE(certifier.pop_group(certifier.innermost_group()));
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

TEST(ResumableChecker, LemmaGroupsSurviveGroupPoolCompaction) {
  // A lemma resting on two groups keeps their ids in the group pool. Fifty
  // copies of a lemma resting on ten groups fill the pool ahead of it, and
  // retiring one of those groups turns them into garbage and compacts the
  // pool. The two-group lemma then becomes the reason of a root literal,
  // which must still rest on both of its groups: retiring one undoes it.
  proof::DratChecker checker;
  for (int v = 10; v < 20; ++v) {
    checker.add_original(lits({-v, v + 1}), /*group=*/v);
  }
  checker.add_original(lits({-1, 2}), kG);
  checker.add_original(lits({-2, 3}), kH);
  proof::Proof trace;
  for (int copy = 0; copy < 50; ++copy) trace.add(lits({-10, 20}));
  trace.add(lits({-1, 3}));  // rests on G and H
  checker.consume(trace);
  ASSERT_TRUE(checker.lemma_live(50));

  checker.retire_group(10);
  EXPECT_FALSE(checker.lemma_live(0));
  // The root unit propagates 2 through G's clause, then 3 with the lemma
  // as its reason (it follows G's clause in the watch list of 1).
  checker.add_original(lits({1}));
  EXPECT_TRUE(checker.answer_holds(trace, lits({-3})));

  checker.retire_group(kH);
  EXPECT_FALSE(checker.lemma_live(50));
  EXPECT_FALSE(checker.answer_holds(trace, lits({-3})));
  EXPECT_TRUE(checker.answer_holds(trace, lits({-2})));
}

// The verdict a fresh one-shot checker gives for the answer `core` over
// `clauses`: the clause ¬core is RUP exactly when the clauses plus the
// core's units propagate to a conflict, i.e. when the empty clause is.
bool fresh_verdict(const std::vector<std::vector<Lit>>& clauses,
                   const std::vector<Lit>& core) {
  Cnf cnf;
  for (const auto& clause : clauses) cnf.add_clause(clause);
  for (const Lit a : core) cnf.add_unit(a);
  proof::Proof empty;
  empty.add({});
  proof::DratChecker fresh(cnf);
  return fresh.check(empty).valid;
}

TEST(ResumableChecker, LongSessionStoreMatchesAFreshCheckerAtEveryAnswer) {
  // 1,200 groups pushed, parked, revived and retired over one live checker,
  // with trace additions and deletions in between: the retired clauses,
  // deleted lemmas, stale watches and undone root literals push the
  // literal, group and watch pools past their compaction thresholds again
  // and again. After every operation an answer must get the verdict a fresh
  // checker gives over the live, active originals alone. The lemmas are
  // weakenings of root clauses by a variable no original uses, added while
  // the database is not refuted, so they never strengthen propagation and
  // never rest on a group.
  constexpr int kVars = 60;
  constexpr int kGroups = 1200;
  const auto random_lit = [](Rng& rng, int vars) {
    return Lit(static_cast<Var>(rng.below(static_cast<std::uint64_t>(vars))),
               rng.coin());
  };
  struct LiveGroup {
    GroupId id;
    bool active;
    std::vector<std::vector<Lit>> clauses;
  };
  proof::DratChecker checker;
  proof::Proof trace;
  Rng rng(1515);
  // Root clauses over variables of their own: no group's propagation ever
  // assigns them, so a lemma weakening one rests on no group.
  const std::vector<std::vector<Lit>> root = {
      lits({61, 62}), lits({-63, 64}), lits({65, -66, 67}), lits({-68, 69})};
  for (const auto& clause : root) checker.add_original(clause);
  // A root implication chain over variables 100..199: a group's unit on it
  // forces the rest of the chain, and every such root literal rests on the
  // group until it is parked or retired.
  std::vector<std::vector<Lit>> chain;
  for (int v = 100; v < 199; ++v) {
    chain.push_back({Lit::negative(v), Lit::positive(v + 1)});
    checker.add_original(chain.back());
  }

  std::vector<LiveGroup> live;
  std::vector<std::vector<Lit>> lemmas;
  GroupId next = 0;
  int answers = 0;
  int held = 0;
  while (next < kGroups) {
    const std::uint64_t op = rng.below(10);
    if (op < 3 || live.size() < 4) {
      LiveGroup group{next++, true, {}};
      const std::uint64_t n = 2 + rng.below(5);
      for (std::uint64_t i = 0; i < n; ++i) {
        std::vector<Lit> clause;
        const std::uint64_t size = rng.chance(0.04) ? 1 : 2 + rng.below(2);
        for (std::uint64_t k = 0; k < size; ++k) {
          clause.push_back(random_lit(rng, kVars));
        }
        checker.add_original(clause, group.id);
        group.clauses.push_back(std::move(clause));
      }
      if (rng.chance(0.2)) {
        group.clauses.push_back(
            {Lit::positive(static_cast<Var>(100 + rng.below(100)))});
        checker.add_original(group.clauses.back(), group.id);
      }
      live.push_back(std::move(group));
    } else if (op < 5) {
      LiveGroup& group = live[rng.below(live.size())];
      group.active = !group.active;
      checker.set_group_active(group.id, group.active);
    } else if (op < 7 || live.size() > 24) {
      const std::size_t victim = rng.below(live.size());
      checker.retire_group(live[victim].id);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    } else if ((op < 9 || lemmas.empty()) && !checker.refuted()) {
      std::vector<Lit> lemma = root[rng.below(root.size())];
      lemma.push_back(Lit(static_cast<Var>(70 + rng.below(20)), rng.coin()));
      trace.add(lemma);
      lemmas.push_back(std::move(lemma));
    } else if (!lemmas.empty()) {
      const std::size_t victim = rng.below(lemmas.size());
      trace.del(lemmas[victim]);
      lemmas.erase(lemmas.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    checker.consume(trace);

    std::vector<std::vector<Lit>> formula = root;
    formula.insert(formula.end(), chain.begin(), chain.end());
    for (const LiveGroup& group : live) {
      if (!group.active) continue;
      formula.insert(formula.end(), group.clauses.begin(), group.clauses.end());
    }
    std::vector<Lit> core;
    const std::uint64_t core_size = 1 + rng.below(3);
    for (std::uint64_t k = 0; k < core_size; ++k) {
      core.push_back(random_lit(rng, kVars));
    }
    const bool expected = fresh_verdict(formula, core);
    ASSERT_EQ(checker.answer_holds(trace, core), expected)
        << "answer " << answers << " after group " << next;
    ++answers;
    held += expected ? 1 : 0;
  }
  // Both verdicts are common, and none needed a replay.
  EXPECT_GT(held, answers / 10);
  EXPECT_LT(held, answers - answers / 10);
  EXPECT_EQ(checker.stats().replays, 0u);
  EXPECT_EQ(checker.stats().dropped_adds, 0u);
  EXPECT_GT(checker.stats().deletions, 0u);
}


// The figures of one certified session: every UNSAT answer's verdict and
// the checker's counters at the end.
struct SessionRecord {
  std::vector<bool> certified;
  std::size_t steps_consumed = 0;
  std::size_t add_checks = 0;
  std::size_t checked_adds = 0;
  std::size_t deletions = 0;
  std::size_t peak_live_clauses = 0;
  std::size_t replays = 0;
  std::size_t watermark = 0;

  friend bool operator==(const SessionRecord&, const SessionRecord&) = default;
};

// A seeded session of pushes, pops and assumption queries over a random
// formula, every operation through `certifier`.
SessionRecord certified_session(Solver& solver,
                                proof::LiveCertifier& certifier,
                                std::uint64_t seed) {
  SessionRecord record;
  certifier.load(gen::random_ksat(30, 110, 3, seed));
  Rng rng(seed);
  for (int query = 0; query < 120 && solver.ok(); ++query) {
    if (query % 6 == 0) {
      if (solver.num_groups() > 2) {
        (void)certifier.pop_group(certifier.innermost_group());
      }
      solver.push_group();
      for (int i = 0; i < 5; ++i) {
        std::vector<Lit> clause;
        for (int k = 0; k < 3; ++k) {
          clause.push_back(Lit(static_cast<Var>(rng.below(30)), rng.coin()));
        }
        (void)certifier.add_clause(clause);
      }
    }
    std::vector<Lit> assumptions;
    for (int k = 0; k < 3; ++k) {
      assumptions.push_back(Lit(static_cast<Var>(rng.below(30)), rng.coin()));
    }
    if (solver.solve_with_assumptions(assumptions) ==
        SolveStatus::unsatisfiable) {
      record.certified.push_back(certifier.answer_certified());
    }
  }
  const proof::CheckerStats& stats = certifier.checker().stats();
  record.steps_consumed = stats.steps_consumed;
  record.add_checks = stats.add_checks;
  record.checked_adds = stats.checked_adds;
  record.deletions = stats.deletions;
  record.peak_live_clauses = stats.peak_live_clauses;
  record.replays = stats.replays;
  record.watermark = certifier.checker().watermark();
  return record;
}

TEST(ResumableChecker, ReleasedCheckerCertifiesLikeANewOne) {
  // A checker released by one session's certifier serves the next
  // session's certifier, which resets it: every verdict and counter
  // matches a new checker's.
  std::unique_ptr<proof::DratChecker> spare;
  {
    Solver solver;
    proof::LiveCertifier certifier(solver, /*log=*/true, /*check=*/true);
    const SessionRecord first = certified_session(solver, certifier, 41);
    ASSERT_FALSE(first.certified.empty());
    spare = certifier.release_checker();
    EXPECT_FALSE(certifier.checking());
  }
  ASSERT_NE(spare, nullptr);
  EXPECT_GT(spare->watermark(), 0u);

  Solver fresh_solver;
  proof::LiveCertifier fresh(fresh_solver, /*log=*/true, /*check=*/true);
  const SessionRecord expected = certified_session(fresh_solver, fresh, 43);
  ASSERT_FALSE(expected.certified.empty());
  for (const bool ok : expected.certified) EXPECT_TRUE(ok);

  Solver solver;
  proof::LiveCertifier reused(solver, /*log=*/true, /*check=*/true,
                              std::move(spare));
  EXPECT_EQ(certified_session(solver, reused, 43), expected);
}
}  // namespace
}  // namespace berkmin
