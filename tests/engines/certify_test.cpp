// engines::certify and the checking SolverBackend it runs on: every
// operation a backend script issues reaches the live checker, so each
// UNSAT answer is certified and no SAT answer is; and certify() turns a
// wrong safe verdict into a structured `unknown`.
#include <gtest/gtest.h>

#include "core/solver.h"
#include "engines/backend.h"
#include "engines/engine.h"
#include "engines_test_util.h"
#include "proof/live_certifier.h"

namespace berkmin::engines {
namespace {

TEST(SolverBackend, CheckingCertifierConfirmsEachAnswer) {
  Solver solver;
  proof::LiveCertifier certifier(solver, /*log=*/true, /*check=*/true);
  SolverBackend backend(certifier);
  const Var first = backend.new_vars(3);
  const Lit a(first, false), b(first + 1, false), c(first + 2, false);
  const auto solve = [&](std::span<const Lit> assumptions) {
    return backend.solve(assumptions, Budget::unlimited());
  };

  ASSERT_TRUE(backend.add_binary(a, b));  // root: a | b
  const GroupId g = backend.push();
  ASSERT_NE(g, no_group);
  ASSERT_TRUE(backend.add_unit(~a));  // into g, the innermost group
  const GroupId h = backend.push();
  ASSERT_NE(h, no_group);
  const Lit not_b[] = {~b};
  ASSERT_TRUE(backend.add_clause_to(g, not_b));  // into g, below h

  EXPECT_EQ(solve({}), SolveStatus::unsatisfiable);
  EXPECT_TRUE(backend.answer_certified());

  // Parked, g's clauses leave the checker's formula too.
  ASSERT_TRUE(backend.set_group_active(g, false));
  EXPECT_EQ(solve({}), SolveStatus::satisfiable);
  EXPECT_FALSE(backend.answer_certified());
  const Lit neither[] = {~a, ~b};
  EXPECT_EQ(solve(neither), SolveStatus::unsatisfiable);
  EXPECT_TRUE(backend.answer_certified());

  // Revived, they are back.
  ASSERT_TRUE(backend.set_group_active(g, true));
  EXPECT_EQ(solve({}), SolveStatus::unsatisfiable);
  EXPECT_TRUE(backend.answer_certified());

  // Popped by handle, they are gone for good; the handle is dead.
  ASSERT_TRUE(backend.pop(g));
  EXPECT_EQ(solve({}), SolveStatus::satisfiable);
  EXPECT_FALSE(backend.answer_certified());
  const Lit unit_c[] = {c};
  EXPECT_FALSE(backend.add_clause_to(g, unit_c));
  EXPECT_FALSE(backend.set_group_active(g, false));
  EXPECT_FALSE(backend.pop(g));
  EXPECT_FALSE(backend.last_error().empty());

  // h is still live and now innermost: refute the root through it, then
  // retire it with pop().
  ASSERT_TRUE(backend.add_unit(~a));
  ASSERT_TRUE(backend.add_unit(~b));
  EXPECT_EQ(solve({}), SolveStatus::unsatisfiable);
  EXPECT_TRUE(backend.answer_certified());
  ASSERT_TRUE(backend.pop());
  EXPECT_EQ(solve({}), SolveStatus::satisfiable);
  EXPECT_FALSE(backend.answer_certified());
  const Lit not_c[] = {~c};
  ASSERT_TRUE(backend.add_unit(c));
  EXPECT_EQ(solve(not_c), SolveStatus::unsatisfiable);
  EXPECT_TRUE(backend.answer_certified());
}

TEST(SolverBackend, PassThroughCertifiesNothing) {
  Solver solver;
  SolverBackend backend(solver);
  const Lit a(backend.new_vars(1), false);
  ASSERT_TRUE(backend.add_unit(a));
  ASSERT_TRUE(backend.add_unit(~a));
  EXPECT_EQ(backend.solve({}, Budget::unlimited()),
            SolveStatus::unsatisfiable);
  EXPECT_FALSE(backend.answer_certified());
}

EngineResult claim(Verdict verdict, int bound,
                   std::vector<std::vector<Lit>> invariant = {}) {
  EngineResult result;
  result.verdict = verdict;
  result.bound = bound;
  result.invariant = std::move(invariant);
  return result;
}

// Expects certify() to reject `result` with an error mentioning `why`.
void expect_rejected(const TransitionSystem& ts, EngineResult result,
                     const std::string& why) {
  EXPECT_FALSE(certify(ts, result));
  EXPECT_FALSE(result.certified);
  EXPECT_EQ(result.verdict, Verdict::unknown);
  EXPECT_NE(result.error.find(why), std::string::npos) << result.error;
}

TEST(Certify, BoundedVerdictPastTheCounterexampleFails) {
  // Bad fires at cycle 7: safe within 6 holds, safe within 8 does not.
  const TransitionSystem ts(test_circuits::counter(3));
  EngineResult holds = claim(Verdict::safe_bounded, 6);
  EXPECT_TRUE(certify(ts, holds)) << holds.error;
  EXPECT_EQ(holds.verdict, Verdict::safe_bounded);
  expect_rejected(ts, claim(Verdict::safe_bounded, 8), "bounded query");
}

TEST(Certify, InvariantExcludingInitFails) {
  // "latch 0 is 1" holds in no initial state.
  const TransitionSystem ts(test_circuits::safe_ring());
  expect_rejected(ts, claim(Verdict::safe_invariant, 1, {{Lit(0, false)}}),
                  "excludes init");
}

TEST(Certify, EmptyInvariantOnAnUnsafeSystemFails) {
  // With no invariant every state is allowed, the all-ones one included.
  const TransitionSystem ts(test_circuits::counter(3));
  expect_rejected(ts, claim(Verdict::safe_invariant, 1), "property query");
}

TEST(Certify, NonInductiveInvariantFails) {
  // "not all ones" holds initially and excludes bad, but the counter steps
  // from 6 into 7, which it excludes.
  const TransitionSystem ts(test_circuits::counter(3));
  expect_rejected(
      ts,
      claim(Verdict::safe_invariant, 1,
            {{Lit(0, true), Lit(1, true), Lit(2, true)}}),
      "consecution query");
}

TEST(Certify, InvariantNamingNoLatchFails) {
  const TransitionSystem ts(test_circuits::safe_ring());
  expect_rejected(ts, claim(Verdict::safe_invariant, 1, {{Lit(7, true)}}),
                  "names no latch");
}

TEST(Certify, UnsafeAndUnknownAreLeftUntouched) {
  const TransitionSystem ts(test_circuits::counter(3));
  for (const Verdict verdict : {Verdict::unsafe, Verdict::unknown}) {
    EngineResult result = claim(verdict, 7);
    result.error = "as reported";
    EXPECT_FALSE(certify(ts, result));
    EXPECT_FALSE(result.certified);
    EXPECT_EQ(result.verdict, verdict);
    EXPECT_EQ(result.error, "as reported");
  }
}

}  // namespace
}  // namespace berkmin::engines
