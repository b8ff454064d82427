// Incremental clause groups: push_group/pop_group semantics, learned-
// clause retention across pops, selector hygiene (models, cores, stats),
// and the failed_assumptions()-after-pop regression.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "core/solver.h"
#include "gen/pigeonhole.h"
#include "gen/random_ksat.h"
#include "reference/dpll.h"
#include "test_util.h"
#include "util/rng.h"

namespace berkmin {
namespace {

using testing::lits;
using testing::make_cnf;

TEST(ClauseGroups, PoppedClausesAreRetracted) {
  Solver solver;
  solver.load(make_cnf({{1, 2}}));
  solver.push_group();
  ASSERT_TRUE(solver.add_clause(lits({-1})));
  ASSERT_TRUE(solver.add_clause(lits({-2})));
  EXPECT_EQ(solver.solve(), SolveStatus::unsatisfiable);
  EXPECT_TRUE(solver.ok()) << "group UNSAT must not poison the solver";
  solver.pop_group(solver.innermost_group());
  EXPECT_EQ(solver.num_groups(), 0);
  EXPECT_EQ(solver.solve(), SolveStatus::satisfiable);
  EXPECT_EQ(solver.validate_invariants(), "");
}

TEST(ClauseGroups, NestedGroupsPopInLifoOrder) {
  Solver solver;
  solver.load(make_cnf({{1, 2, 3}}));
  solver.push_group();
  solver.add_clause(lits({-1}));
  solver.push_group();
  solver.add_clause(lits({-2}));
  solver.add_clause(lits({-3}));
  EXPECT_EQ(solver.num_groups(), 2);
  EXPECT_EQ(solver.solve(), SolveStatus::unsatisfiable);
  solver.pop_group(solver.innermost_group());  // drops -2, -3
  EXPECT_EQ(solver.solve(), SolveStatus::satisfiable);
  EXPECT_FALSE(solver.model_value(from_dimacs(1)));  // -1 still active
  solver.pop_group(solver.innermost_group());
  ASSERT_EQ(solver.solve(), SolveStatus::satisfiable);
  EXPECT_EQ(solver.validate_invariants(), "");
}

TEST(ClauseGroups, GroupClausesBehaveExactlyWhileActive) {
  // While a group is active its clauses constrain the formula exactly as
  // plain adds would: compare against a scratch solver per step.
  const Cnf base = gen::random_ksat(16, 50, 3, 123);
  Solver inc;
  inc.load(base);

  Cnf scratch_formula = base;
  Rng rng(7);
  inc.push_group();
  for (int i = 0; i < 8; ++i) {
    std::vector<Lit> clause;
    for (int k = 0; k < 3; ++k) {
      clause.push_back(Lit(static_cast<Var>(rng.below(16)), rng.coin()));
    }
    inc.add_clause(clause);
    scratch_formula.add_clause(clause);

    Solver scratch;
    scratch.load(scratch_formula);
    EXPECT_EQ(inc.solve(), scratch.solve()) << "step " << i;
    EXPECT_EQ(inc.validate_invariants(), "");
  }
}

TEST(ClauseGroups, ModelElidesSelectors) {
  Solver solver;
  solver.load(make_cnf({{1, 2}}));
  solver.push_group();
  solver.add_clause(lits({-1}));
  ASSERT_EQ(solver.solve(), SolveStatus::satisfiable);
  // The model covers exactly the two external variables, although the
  // solver internally holds a selector variable as well.
  EXPECT_EQ(solver.model().size(), 2u);
  EXPECT_EQ(solver.num_vars(), 2);
  EXPECT_GT(solver.num_internal_vars(), 2);
  EXPECT_TRUE(solver.model_value(from_dimacs(2)));
}

TEST(ClauseGroups, LearnedClausesSurviveUnrelatedPop) {
  // hole(6) is UNSAT on its own merits; an unrelated satisfiable group
  // must not wipe the lemmas that prove it. After the first solve flips
  // ok(), popping keeps the refutation.
  Solver solver;
  solver.load(gen::pigeonhole(6));
  solver.push_group();
  // Fresh variables, trivially satisfiable side constraints.
  const int base = gen::pigeonhole(6).num_vars();
  solver.add_clause({Lit::positive(base), Lit::positive(base + 1)});
  ASSERT_EQ(solver.solve(), SolveStatus::unsatisfiable);
  EXPECT_FALSE(solver.ok());
  const std::uint64_t conflicts_before = solver.stats().conflicts;
  solver.pop_group(solver.innermost_group());
  EXPECT_EQ(solver.solve(), SolveStatus::unsatisfiable);
  // No new search happened: the group-independent refutation was kept.
  EXPECT_EQ(solver.stats().conflicts, conflicts_before);
}

TEST(ClauseGroups, RetentionKeepsSelectorFreeLemmas) {
  // A SAT base with a group that makes it UNSAT: solving inside the group
  // learns a mix of group-dependent and group-independent lemmas. After
  // the pop every surviving lemma must be a consequence of the base
  // formula alone — verified by checking each against the reference DPLL.
  const Cnf base = gen::random_ksat(14, 40, 3, 5);
  Solver solver;
  solver.load(base);
  solver.push_group();
  // A contradictory pair routed through base variables forces real search.
  solver.add_clause(lits({1, 2}));
  solver.add_clause(lits({1, -2}));
  solver.add_clause(lits({-1, 3}));
  solver.add_clause(lits({-1, -3}));
  const SolveStatus in_group = solver.solve();
  ASSERT_NE(in_group, SolveStatus::unknown);
  solver.pop_group(solver.innermost_group());
  ASSERT_EQ(solver.validate_invariants(), "");

  for (const ClauseRef ref : solver.learned_stack()) {
    const std::vector<Lit> clause = solver.clause_literals(ref);
    // Internal numbering == external for base vars here; selectors would
    // be >= base.num_vars() and must all be gone or popped-satisfied.
    Cnf refute = base;
    bool has_out_of_range = false;
    for (const Lit l : clause) {
      if (l.var() >= base.num_vars()) has_out_of_range = true;
    }
    if (has_out_of_range) continue;  // tagged with a still-active selector
    for (const Lit l : clause) refute.add_unit(~l);
    EXPECT_FALSE(reference::dpll_solve(refute).satisfiable)
        << "retained lemma is not implied by the base formula";
  }
}

TEST(ClauseGroups, PopStatsAccount) {
  Solver solver;
  solver.load(gen::random_ksat(12, 30, 3, 9));
  solver.push_group();
  solver.add_clause(lits({1}));
  solver.add_clause(lits({-1, 2}));
  solver.add_clause(lits({-2, -1}));
  (void)solver.solve();
  const std::size_t learned_before_pop = solver.num_learned();
  solver.pop_group(solver.innermost_group());
  EXPECT_EQ(solver.stats().groups_pushed, 1u);
  EXPECT_EQ(solver.stats().groups_popped, 1u);
  EXPECT_EQ(solver.stats().pop_retained_learned +
                solver.stats().pop_dropped_learned,
            learned_before_pop);
  EXPECT_EQ(solver.num_learned(), solver.stats().pop_retained_learned);
}

TEST(ClauseGroups, FailedAssumptionsAfterPopRegression) {
  // Regression (ISSUE 5 satellite): an UNSAT-under-assumptions answer in
  // which the active group participates must never leak selector
  // literals, and after the group is popped the previously returned core
  // must not reference dead selectors. The user-visible core is a subset
  // of the user's assumptions at all times.
  Solver solver;
  solver.load(make_cnf({{1, 2}}));
  solver.push_group();
  solver.add_clause(lits({-3, -1}));  // group: assuming 3 kills 1
  solver.add_clause(lits({-3, -2}));  // ... and 2
  const auto assumptions = lits({3});
  ASSERT_EQ(solver.solve_with_assumptions(assumptions),
            SolveStatus::unsatisfiable);
  EXPECT_TRUE(solver.ok());
  const std::vector<Lit> core = solver.failed_assumptions();
  const std::set<Lit> allowed(assumptions.begin(), assumptions.end());
  for (const Lit l : core) {
    EXPECT_TRUE(allowed.count(l)) << "core leaked non-assumption literal "
                                  << to_string(l);
    EXPECT_LT(l.var(), solver.num_vars());
  }
  solver.pop_group(solver.innermost_group());
  // The stored core still references only user variables (no dead
  // selectors), and a fresh query is clean.
  for (const Lit l : solver.failed_assumptions()) {
    EXPECT_LT(l.var(), solver.num_vars());
  }
  EXPECT_EQ(solver.solve_with_assumptions(assumptions),
            SolveStatus::satisfiable);
  EXPECT_EQ(solver.validate_invariants(), "");
}

TEST(ClauseGroups, GroupOnlyUnsatYieldsEmptyUserCore) {
  // The active group alone contradicts the base: the answer is UNSAT with
  // ok() still true, and the user-visible core is empty (the groups are
  // to blame, not the caller's assumptions).
  Solver solver;
  solver.load(make_cnf({{1}}));
  solver.push_group();
  solver.add_clause(lits({-1}));
  ASSERT_EQ(solver.solve(), SolveStatus::unsatisfiable);
  EXPECT_TRUE(solver.ok());
  EXPECT_TRUE(solver.failed_assumptions().empty());
  solver.pop_group(solver.innermost_group());
  EXPECT_EQ(solver.solve(), SolveStatus::satisfiable);
}

TEST(ClauseGroups, NewVariablesInsideGroupsStayExternal) {
  // Variables created after a push (by clauses mentioning them) keep
  // dense external numbering even though selectors interleave internally.
  Solver solver;
  solver.load(make_cnf({{1, 2}}));
  solver.push_group();
  solver.add_clause(lits({3, 4}));  // vars 2,3 created after the selector
  solver.push_group();
  solver.add_clause(lits({5, -3}));
  ASSERT_EQ(solver.solve(), SolveStatus::satisfiable);
  EXPECT_EQ(solver.num_vars(), 5);
  EXPECT_EQ(solver.num_internal_vars(), 7);
  EXPECT_EQ(solver.model().size(), 5u);
  // The group clause {3,4} must actually constrain external vars 3/4:
  // force both false and expect UNSAT while the group is active.
  EXPECT_EQ(solver.solve_with_assumptions(lits({-3, -4})),
            SolveStatus::unsatisfiable);
  solver.pop_group(solver.innermost_group());
  solver.pop_group(solver.innermost_group());
  EXPECT_EQ(solver.solve_with_assumptions(lits({-3, -4})),
            SolveStatus::satisfiable);
  EXPECT_EQ(solver.validate_invariants(), "");
}

TEST(ClauseGroups, PushPopAcrossBudgetSlices) {
  // Groups compose with the resumable-slice contract: a sliced solve
  // inside a group reaches the same verdict, and popping afterwards
  // restores satisfiability.
  const Cnf base = gen::random_ksat(20, 60, 3, 31);
  Solver solver;
  solver.load(base);
  Solver probe;
  probe.load(base);
  ASSERT_EQ(probe.solve(), SolveStatus::satisfiable);

  solver.push_group();
  solver.load(gen::pigeonhole(5));  // UNSAT side constraints, fresh vars? no:
  // pigeonhole vars overlap base vars — fine, it is still UNSAT.
  SolveStatus status = SolveStatus::unknown;
  for (int i = 0; i < 100000 && status == SolveStatus::unknown; ++i) {
    status = solver.solve(Budget::conflicts(5));
  }
  EXPECT_EQ(status, SolveStatus::unsatisfiable);
  EXPECT_TRUE(solver.ok());
  solver.pop_group(solver.innermost_group());
  EXPECT_EQ(solver.solve(), SolveStatus::satisfiable);
  EXPECT_EQ(solver.validate_invariants(), "");
}

TEST(ClauseGroups, NamedHandlesPopInAnyOrder) {
  // push_group returns a named handle; pop_group(id) retracts any live
  // group regardless of push order, and a dead handle is a refusal.
  Solver solver;
  solver.load(make_cnf({{1, 2, 3}}));
  const GroupId a = solver.push_group();
  solver.add_clause(lits({-1}));
  const GroupId b = solver.push_group();
  solver.add_clause(lits({-2}));
  const GroupId c = solver.push_group();
  solver.add_clause(lits({-3}));
  EXPECT_EQ(solver.solve(), SolveStatus::unsatisfiable);

  ASSERT_TRUE(solver.pop_group(b));   // the *middle* group
  EXPECT_FALSE(solver.pop_group(b));  // stale handle: refused
  EXPECT_FALSE(solver.group_is_live(b));
  EXPECT_EQ(solver.num_groups(), 2);
  ASSERT_EQ(solver.solve(), SolveStatus::satisfiable);
  EXPECT_TRUE(solver.model_value(from_dimacs(2)));   // -2 was retracted
  EXPECT_FALSE(solver.model_value(from_dimacs(1)));  // -1 still live
  EXPECT_FALSE(solver.model_value(from_dimacs(3)));  // -3 still live

  // A later push reuses b's recycled selector under a fresh handle.
  const GroupId d = solver.push_group();
  EXPECT_NE(d, b);
  EXPECT_EQ(solver.stats().selectors_recycled, 1u);
  solver.add_clause(lits({-2}));
  EXPECT_EQ(solver.solve(), SolveStatus::unsatisfiable);

  ASSERT_TRUE(solver.pop_group(a));  // out of order again
  ASSERT_TRUE(solver.pop_group(d));
  ASSERT_TRUE(solver.pop_group(c));
  EXPECT_EQ(solver.num_groups(), 0);
  EXPECT_EQ(solver.solve(), SolveStatus::satisfiable);
  EXPECT_EQ(solver.validate_invariants(), "");
}

TEST(ClauseGroups, GroupActivationParksWithoutRetracting) {
  // set_group_active(id, false) makes the group inert for solves without
  // retracting it: no clause is deleted, no lemma is dropped, and the
  // group revives with everything intact.
  Solver solver;
  solver.load(make_cnf({{1, 2}}));
  const GroupId g = solver.push_group();
  solver.add_clause(lits({-1}));
  solver.add_clause(lits({-2}));
  EXPECT_EQ(solver.solve(), SolveStatus::unsatisfiable);
  EXPECT_TRUE(solver.ok());

  ASSERT_TRUE(solver.set_group_active(g, false));
  EXPECT_FALSE(solver.group_is_active(g));
  EXPECT_EQ(solver.solve(), SolveStatus::satisfiable);  // parked: inert

  ASSERT_TRUE(solver.set_group_active(g, true));
  EXPECT_EQ(solver.solve(), SolveStatus::unsatisfiable);  // revived

  ASSERT_TRUE(solver.pop_group(g));
  EXPECT_FALSE(solver.set_group_active(g, true));  // stale handle
  EXPECT_EQ(solver.solve(), SolveStatus::satisfiable);
  EXPECT_EQ(solver.validate_invariants(), "");
}

TEST(ClauseGroups, SelectorRecyclingBoundsLongLivedSessions) {
  // ISSUE 10 satellite: a long-lived session pushing and popping many
  // groups (in arbitrary order) must not grow the internal variable
  // space one selector per push — popped selectors return through the
  // free-list and later pushes are served from it, so internal width is
  // bounded by the peak number of simultaneously live groups.
  Solver solver;
  solver.load(gen::random_ksat(16, 50, 3, 123));
  const int external = solver.num_vars();

  Rng rng(42);
  std::vector<GroupId> live;
  std::size_t peak = 0;
  for (int round = 0; round < 500; ++round) {
    if (live.size() < 3 && (live.empty() || rng.coin())) {
      const GroupId g = solver.push_group();
      std::vector<Lit> clause;
      for (int k = 0; k < 3; ++k) {
        clause.push_back(Lit(static_cast<Var>(rng.below(16)), rng.coin()));
      }
      solver.add_clause(clause);
      live.push_back(g);
      peak = std::max(peak, live.size());
    } else {
      const std::size_t at = rng.below(static_cast<std::uint64_t>(live.size()));
      ASSERT_TRUE(solver.pop_group(live[at]));  // random order, not LIFO
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
    }
    if (round % 16 == 0) {
      ASSERT_NE(solver.solve(), SolveStatus::unknown);
      ASSERT_TRUE(solver.ok());
    }
  }
  // Bounded growth: at most `peak` selectors were ever allocated, so all
  // but `peak` of the pushes were served from the free-list.
  EXPECT_LE(solver.num_internal_vars(), external + static_cast<int>(peak));
  EXPECT_LE(solver.stats().groups_pushed - solver.stats().selectors_recycled,
            static_cast<std::uint64_t>(peak));
  EXPECT_GT(solver.stats().selectors_recycled, 100u);
  EXPECT_EQ(solver.validate_invariants(), "");
}

TEST(ClauseGroups, OutOfOrderPopDropsDependentsKeepsLaterGroups) {
  // ISSUE 10 satellite: retained-lemma interaction with *out-of-order*
  // deletion. Lemmas whose derivations touched a popped middle group die
  // with it; lemmas of a still-live later group survive the pop with
  // their literal sets and activity counters intact.
  const Cnf base = gen::random_ksat(14, 40, 3, 5);  // satisfiable
  Solver solver;
  solver.load(base);
  const GroupId a = solver.push_group();
  solver.add_clause(lits({1, 2}));
  solver.add_clause(lits({1, -2}));  // group a forces 1
  const GroupId b = solver.push_group();
  solver.add_clause(lits({-1, 3}));
  solver.add_clause(lits({-1, -3}));  // group b forces -1; a AND b is UNSAT
  ASSERT_EQ(solver.solve(), SolveStatus::unsatisfiable);
  ASSERT_TRUE(solver.ok());

  // Lemmas are tagged with the selectors of the groups their derivations
  // touched. Snapshot every lemma NOT depending on the middle group `a`:
  // all of them must survive pop_group(a) byte-for-byte (activity too).
  const Lit sel_a = solver.group_selectors()[0];
  const Lit sel_b = solver.group_selectors()[1];
  std::map<std::vector<Lit>, std::uint32_t> expected_survivors;
  std::size_t a_dependent = 0;
  for (const ClauseRef ref : solver.learned_stack()) {
    std::vector<Lit> clause = solver.clause_literals(ref);
    std::sort(clause.begin(), clause.end());
    const bool touches_a =
        std::find(clause.begin(), clause.end(), sel_a) != clause.end();
    if (touches_a) {
      ++a_dependent;
    } else {
      expected_survivors.emplace(std::move(clause),
                                 solver.clause_activity(ref));
    }
  }

  ASSERT_TRUE(solver.pop_group(a));  // middle group; b stays live
  ASSERT_EQ(solver.validate_invariants(), "");
  EXPECT_TRUE(solver.group_is_live(b));
  EXPECT_EQ(solver.stats().pop_dropped_learned,
            static_cast<std::uint64_t>(a_dependent));
  EXPECT_EQ(solver.num_learned(), expected_survivors.size());
  for (const ClauseRef ref : solver.learned_stack()) {
    std::vector<Lit> clause = solver.clause_literals(ref);
    std::sort(clause.begin(), clause.end());
    EXPECT_EQ(std::find(clause.begin(), clause.end(), sel_a), clause.end())
        << "a surviving lemma still mentions the popped group's selector";
    const auto it = expected_survivors.find(clause);
    ASSERT_NE(it, expected_survivors.end())
        << "pop rewrote or invented a lemma of a still-live group";
    EXPECT_EQ(solver.clause_activity(ref), it->second)
        << "pop disturbed a surviving lemma's activity";
  }
  (void)sel_b;

  // Failed-assumptions-after-pop, out-of-order edition: group b is still
  // live and forces -1, so assuming 1 is UNSAT with a clean user core.
  ASSERT_EQ(solver.solve_with_assumptions(lits({1})),
            SolveStatus::unsatisfiable);
  for (const Lit l : solver.failed_assumptions()) {
    EXPECT_LT(l.var(), solver.num_vars());
  }
  ASSERT_TRUE(solver.pop_group(b));
  EXPECT_EQ(solver.solve_with_assumptions(lits({1})),
            SolveStatus::satisfiable);
  EXPECT_EQ(solver.validate_invariants(), "");
}

}  // namespace
}  // namespace berkmin
