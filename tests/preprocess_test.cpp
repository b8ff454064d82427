// The inprocessing pre-pass (preprocess() in core/inprocess.h), the root
// simplification its export performs, and CNF statistics.
#include <gtest/gtest.h>

#include <algorithm>

#include "cnf/cnf_stats.h"
#include "cnf/simplify.h"
#include "core/inprocess.h"
#include "core/solver.h"
#include "gen/parity.h"
#include "gen/pigeonhole.h"
#include "gen/random_ksat.h"
#include "proof/drat_checker.h"
#include "proof/proof_writer.h"
#include "reference/brute_force.h"
#include "test_util.h"

namespace berkmin {
namespace {

using testing::lits;
using testing::make_cnf;

// The exported clauses keep the solver's literal order; compare sorted.
std::vector<Lit> sorted(std::span<const Lit> clause) {
  std::vector<Lit> out(clause.begin(), clause.end());
  normalize_clause(out);
  return out;
}

bool contains_clause(const Cnf& cnf, const std::vector<Lit>& clause) {
  for (const auto c : cnf.clauses()) {
    if (sorted(c) == sorted(clause)) return true;
  }
  return false;
}

TEST(Preprocess, RemovesSubsumedClauses) {
  // (1 2) subsumes (1 2 3) and (1 2 4).
  const Cnf cnf = make_cnf({{1, 2}, {1, 2, 3}, {1, 2, 4}});
  const PreprocessResult result = preprocess(cnf);
  EXPECT_FALSE(result.unsat);
  EXPECT_EQ(result.subsumed_clauses, 2u);
  EXPECT_EQ(result.cnf.num_clauses(), 1u);
}

TEST(Preprocess, RemovesDuplicates) {
  const Cnf cnf = make_cnf({{1, 2}, {2, 1}, {1, 2}});
  const PreprocessResult result = preprocess(cnf);
  EXPECT_EQ(result.cnf.num_clauses(), 1u);
}

TEST(Preprocess, SelfSubsumptionStrengthens) {
  // (1 2)\{1} = {2} ⊆ {2 3} = (-1 2 3)\{-1}: resolving on 1 deletes -1
  // from (-1 2 3), leaving (2 3).
  const Cnf cnf = make_cnf({{1, 2}, {-1, 2, 3}});
  const PreprocessResult result = preprocess(cnf);
  EXPECT_GE(result.strengthened_clauses, 1u);
  EXPECT_TRUE(contains_clause(result.cnf, lits({2, 3})));
  EXPECT_FALSE(contains_clause(result.cnf, lits({-1, 2, 3})));
}

TEST(Preprocess, PropagatesUnits) {
  const Cnf cnf = make_cnf({{1}, {-1, 2}, {-2, 3, 4}});
  const PreprocessResult result = preprocess(cnf);
  EXPECT_EQ(result.root_units, 2u);
  // The units lead the export; (-1 2) and (-2 3 4) reduce to (3 4).
  ASSERT_EQ(result.cnf.num_clauses(), 3u);
  EXPECT_EQ(result.cnf.clause(0), lits({1}));
  EXPECT_EQ(result.cnf.clause(1), lits({2}));
  EXPECT_EQ(sorted(result.cnf.clause(2)), lits({3, 4}));
}

TEST(Preprocess, ProbingFindsFailedLiterals) {
  // Assuming 1 propagates 2 and -2: the pass learns -1, which the plain
  // root propagation of the input could not.
  const Cnf cnf = make_cnf({{-1, 2}, {-1, -2}, {1, 3, 4}});
  const PreprocessResult result = preprocess(cnf);
  EXPECT_FALSE(result.unsat);
  EXPECT_EQ(result.root_units, 1u);
  EXPECT_EQ(result.cnf.clause(0), lits({-1}));
  EXPECT_TRUE(contains_clause(result.cnf, lits({3, 4})));
}

TEST(Preprocess, EveryModelOfTheReducedFormulaSatisfiesTheInput) {
  // Small random formulas seeded with units: enumerate every assignment
  // and require that each model of result.cnf is a model of the input.
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    Cnf cnf = gen::random_ksat(10, 20, 3, seed + 300);
    cnf.add_clause(lits({static_cast<int>(seed % 10) + 1}));
    cnf.add_clause(lits({-(static_cast<int>((seed + 3) % 10) + 1), 5}));
    const PreprocessResult result = preprocess(cnf);
    if (result.unsat) {
      EXPECT_FALSE(reference::brute_force_satisfiable(cnf)) << "seed " << seed;
      continue;
    }
    ASSERT_EQ(result.cnf.num_vars(), cnf.num_vars());
    std::vector<Value> assignment(static_cast<std::size_t>(cnf.num_vars()));
    for (std::uint32_t bits = 0; bits < (1u << cnf.num_vars()); ++bits) {
      for (Var v = 0; v < cnf.num_vars(); ++v) {
        assignment[static_cast<std::size_t>(v)] = to_value((bits >> v) & 1);
      }
      if (result.cnf.is_satisfied_by(assignment)) {
        ASSERT_TRUE(cnf.is_satisfied_by(assignment))
            << "seed " << seed << " assignment " << bits;
      }
    }
  }
}

TEST(Preprocess, DetectsUnsat) {
  const Cnf cnf = make_cnf({{1}, {-1, 2}, {-2}});
  EXPECT_TRUE(preprocess(cnf).unsat);
}

TEST(Preprocess, DropsTautologies) {
  const Cnf cnf = make_cnf({{1, -1, 2}, {3, 4}});
  EXPECT_EQ(preprocess(cnf).cnf.num_clauses(), 1u);
}

class PreprocessEquisat : public ::testing::TestWithParam<int> {};

TEST_P(PreprocessEquisat, PreservesSatisfiabilityAndModels) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  const Cnf cnf = gen::random_ksat(12, 45, 3, seed + 900);
  const bool expected = reference::brute_force_satisfiable(cnf);

  const PreprocessResult result = preprocess(cnf);
  if (result.unsat) {
    EXPECT_FALSE(expected);
    return;
  }
  Solver solver;
  solver.load(result.cnf);
  const SolveStatus status = solver.solve();
  EXPECT_EQ(status == SolveStatus::satisfiable, expected) << "seed " << seed;
  if (status == SolveStatus::satisfiable) {
    // The pass preserves equivalence and the export keeps the root units,
    // so models of the reduced formula satisfy the original.
    EXPECT_TRUE(cnf.is_satisfied_by(solver.model()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PreprocessEquisat, ::testing::Range(0, 20));

TEST(Preprocess, ShrinksPigeonholeDuplicateFreeFormula) {
  // Pigeonhole has no subsumed clauses: the pass must not damage it.
  const Cnf cnf = gen::pigeonhole(4);
  const PreprocessResult result = preprocess(cnf);
  EXPECT_EQ(result.cnf.num_clauses(), cnf.num_clauses());
  Solver solver;
  solver.load(result.cnf);
  EXPECT_EQ(solver.solve(), SolveStatus::unsatisfiable);
}

// --- proofs -----------------------------------------------------------------

// The pass's steps, then a fresh solver's steps over the reduced formula,
// certified by the one-shot checker against the ORIGINAL formula.
proof::CheckResult check_composed(const Cnf& cnf, bool inprocess,
                                  PreprocessResult* out) {
  proof::MemoryProofWriter writer;
  PreprocessResult result = preprocess(cnf, &writer);
  if (!result.unsat) {
    SolverOptions options;
    options.inprocess.enabled = inprocess;
    Solver solver(options);
    solver.set_proof(&writer);
    solver.load(result.cnf);
    EXPECT_EQ(solver.solve(), SolveStatus::unsatisfiable);
  }
  *out = std::move(result);
  proof::DratChecker checker(cnf);
  return checker.check(writer.take_proof());
}

// Seeded UNSAT formulas, padded so that the pass has work to do: a
// superset of a clause (subsumed), the clause with its first literal
// flipped plus a literal (strengthened back by self-subsumption), and an
// implication pair over two new variables that makes one of them fail
// under probing.
Cnf padded_unsat_formula(int seed) {
  Cnf cnf;
  if (seed < 4) {
    cnf = gen::pigeonhole(3 + seed);
  } else if (seed < 8) {
    gen::ParityParams params;
    params.num_vars = 12;
    params.num_equations = 10;
    params.equation_size = 3;
    params.satisfiable = false;
    params.seed = static_cast<std::uint64_t>(seed);
    cnf = gen::parity_instance(params);
  } else {
    cnf = gen::random_ksat(40, 220, 3, static_cast<std::uint64_t>(seed) + 40);
  }
  const std::vector<Lit> base(cnf.clause(0).begin(), cnf.clause(0).end());
  // The first variable base does not mention.
  Var other = 0;
  while (std::any_of(base.begin(), base.end(),
                     [&](Lit l) { return l.var() == other; })) {
    ++other;
  }
  std::vector<Lit> superset = base;
  superset.push_back(Lit::negative(other));
  std::vector<Lit> flipped = base;
  flipped[0] = ~flipped[0];
  flipped.push_back(Lit::positive(other));
  cnf.add_clause(superset);
  cnf.add_clause(flipped);
  const Var a = cnf.add_var();
  const Var b = cnf.add_var();
  cnf.add_binary(Lit::negative(a), Lit::positive(b));
  cnf.add_binary(Lit::negative(a), Lit::negative(b));
  return cnf;
}

class PreprocessProof : public ::testing::TestWithParam<int> {};

TEST_P(PreprocessProof, TraceComposesWithTheSolversTrace) {
  const int seed = GetParam();
  const Cnf cnf = padded_unsat_formula(seed);
  // Random 3-SAT at ratio 5.5 over 40 variables is UNSAT in practice;
  // make sure, so that a SAT seed cannot pass vacuously.
  ASSERT_EQ(testing::solve_with(cnf, SolverOptions::berkmin()),
            SolveStatus::unsatisfiable);
  PreprocessResult result;
  const proof::CheckResult check =
      check_composed(cnf, /*inprocess=*/seed % 2 == 1, &result);
  EXPECT_TRUE(check.valid) << "seed " << seed << ": " << check.error;
  // The padding gives the pass rewrites to log (a padded clause is
  // subsumed, or strengthened first by a shorter clause), and the pass
  // leaves the refutation to the solver.
  ASSERT_FALSE(result.unsat) << "seed " << seed;
  EXPECT_GE(result.subsumed_clauses + result.strengthened_clauses, 2u)
      << "seed " << seed;
  EXPECT_GE(result.root_units, 1u) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, PreprocessProof, ::testing::Range(0, 24));

TEST(Preprocess, RefutationEndsTheTraceWithTheEmptyClause) {
  // A unit chain to a contradiction (refuted while loading) and two
  // failed literals (refuted by probing): either way the pass reports
  // unsat, exports the empty clause, and its trace alone certifies.
  const Cnf chain = make_cnf({{-1, 2}, {-2, 3}, {1}, {-3, 4}, {-4}});
  const Cnf probed = make_cnf({{-1, 2}, {-1, -2}, {1, 3}, {1, -3}});
  for (const Cnf& cnf : {chain, probed}) {
    proof::MemoryProofWriter writer;
    const PreprocessResult result = preprocess(cnf, &writer);
    ASSERT_TRUE(result.unsat);
    ASSERT_EQ(result.cnf.num_clauses(), 1u);
    EXPECT_TRUE(result.cnf.clause(0).empty());
    const proof::Proof trace = writer.take_proof();
    ASSERT_FALSE(trace.empty());
    EXPECT_EQ(trace.steps.back().kind, proof::StepKind::add);
    EXPECT_TRUE(trace.steps.back().lits.empty());
    proof::DratChecker checker(cnf);
    EXPECT_TRUE(checker.check(trace).valid);
  }
}

// --- root simplification ------------------------------------------------------
// The export drops root-satisfied clauses and strips root-false literals
// after propagating every unit to a fixpoint.

TEST(Simplify, PropagatesUnitsToFixpoint) {
  // x0; x0 -> x1; x1 -> x2 — everything collapses to units.
  const Cnf cnf = make_cnf({{1}, {-1, 2}, {-2, 3}, {3, 4}});
  const PreprocessResult result = preprocess(cnf);
  EXPECT_FALSE(result.unsat);
  EXPECT_EQ(result.root_units, 3u);
  EXPECT_EQ(result.cnf.num_clauses(), 3u);
}

TEST(Simplify, DetectsRootConflict) {
  EXPECT_TRUE(preprocess(make_cnf({{1}, {-1}})).unsat);
}

TEST(Simplify, DetectsEmptyClause) {
  Cnf cnf = make_cnf({{1, 2}});
  cnf.add_clause(std::vector<Lit>{});
  EXPECT_TRUE(preprocess(cnf).unsat);
}

TEST(Simplify, RemovesSatisfiedClausesAndFalseLiterals) {
  // x0 true: (1 2) is satisfied, (-1 2 3) loses its -1 literal.
  const Cnf cnf = make_cnf({{1}, {1, 2}, {-1, 2, 3}});
  const PreprocessResult result = preprocess(cnf);
  EXPECT_FALSE(result.unsat);
  ASSERT_EQ(result.cnf.num_clauses(), 2u);
  EXPECT_EQ(result.cnf.clause(0), lits({1}));
  EXPECT_EQ(sorted(result.cnf.clause(1)), lits({2, 3}));
}

TEST(Simplify, DropsTautologies) {
  const PreprocessResult result = preprocess(make_cnf({{1, -1, 2}}));
  EXPECT_EQ(result.cnf.num_clauses(), 0u);
  EXPECT_FALSE(result.unsat);
}

TEST(Simplify, PreservesVariableNumbering) {
  const Cnf cnf = make_cnf({{1}, {3, 4}});
  const PreprocessResult result = preprocess(cnf);
  EXPECT_EQ(result.cnf.num_vars(), cnf.num_vars());
  ASSERT_EQ(result.cnf.num_clauses(), 2u);
  EXPECT_EQ(sorted(result.cnf.clause(1)), lits({3, 4}));
}

TEST(Simplify, ChainedConflictThroughUnits) {
  // Units force x0=1, x1=1, then clause (-1 -2) is falsified.
  EXPECT_TRUE(preprocess(make_cnf({{1}, {2}, {-1, -2}})).unsat);
}

// --- statistics -------------------------------------------------------------

TEST(CnfStatsTest, CountsShapes) {
  const Cnf cnf = make_cnf({{1}, {1, 2}, {-1, 2, 3}, {1, 2, 3, 4}});
  const CnfStats stats = compute_stats(cnf);
  EXPECT_EQ(stats.num_vars, 4);
  EXPECT_EQ(stats.num_clauses, 4u);
  EXPECT_EQ(stats.num_units, 1u);
  EXPECT_EQ(stats.num_binary, 1u);
  EXPECT_EQ(stats.num_ternary, 1u);
  EXPECT_EQ(stats.max_clause_length, 4u);
  EXPECT_EQ(stats.num_literals, 10u);
  EXPECT_DOUBLE_EQ(stats.mean_clause_length, 2.5);
  EXPECT_EQ(stats.length_histogram[3], 1u);
}

TEST(CnfStatsTest, HornDetection) {
  // (-1 -2 3) is horn (1 positive); (1 2) is not (2 positives).
  const Cnf cnf = make_cnf({{-1, -2, 3}, {1, 2}});
  const CnfStats stats = compute_stats(cnf);
  EXPECT_EQ(stats.num_horn, 1u);
}

TEST(CnfStatsTest, PositiveFraction) {
  const Cnf cnf = make_cnf({{1, -2}});
  EXPECT_DOUBLE_EQ(compute_stats(cnf).positive_literal_fraction, 0.5);
}

TEST(CnfStatsTest, SummaryMentionsCounts) {
  const Cnf cnf = make_cnf({{1, 2}});
  const std::string text = compute_stats(cnf).summary();
  EXPECT_NE(text.find("2 vars"), std::string::npos);
  EXPECT_NE(text.find("1 clauses"), std::string::npos);
}

TEST(CnfStatsTest, EmptyFormula) {
  const CnfStats stats = compute_stats(Cnf(3));
  EXPECT_EQ(stats.num_clauses, 0u);
  EXPECT_DOUBLE_EQ(stats.mean_clause_length, 0.0);
}

}  // namespace
}  // namespace berkmin
