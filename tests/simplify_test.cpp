#include <gtest/gtest.h>

#include "cnf/simplify.h"
#include "test_util.h"

namespace berkmin {
namespace {

using testing::lits;
using testing::make_cnf;

TEST(NormalizeClause, SortsAndDeduplicates) {
  std::vector<Lit> clause = lits({3, 1, 3, -2});
  ASSERT_TRUE(normalize_clause(clause));
  EXPECT_EQ(clause, lits({1, -2, 3}));
}

TEST(NormalizeClause, DetectsTautology) {
  std::vector<Lit> pair = lits({1, -1});
  EXPECT_FALSE(normalize_clause(pair));
  std::vector<Lit> triple = lits({2, 1, -2});
  EXPECT_FALSE(normalize_clause(triple));
}

TEST(NormalizeClause, EmptyStaysEmpty) {
  std::vector<Lit> clause;
  ASSERT_TRUE(normalize_clause(clause));
  EXPECT_TRUE(clause.empty());
}

TEST(Simplify, PropagatesUnitsToFixpoint) {
  // x0; x0 -> x1; x1 -> x2 — everything collapses to units.
  const Cnf cnf = make_cnf({{1}, {-1, 2}, {-2, 3}, {3, 4}});
  const SimplifyResult result = simplify(cnf);
  EXPECT_FALSE(result.unsat);
  EXPECT_EQ(result.cnf.num_clauses(), 0u);
  EXPECT_EQ(result.root_units.size(), 3u);
}

TEST(Simplify, DetectsRootConflict) {
  const Cnf cnf = make_cnf({{1}, {-1}});
  const SimplifyResult result = simplify(cnf);
  EXPECT_TRUE(result.unsat);
}

TEST(Simplify, DetectsEmptyClause) {
  Cnf cnf = make_cnf({{1, 2}});
  cnf.add_clause(std::vector<Lit>{});
  EXPECT_TRUE(simplify(cnf).unsat);
}

TEST(Simplify, RemovesSatisfiedClausesAndFalseLiterals) {
  // x0 true: first clause satisfied, second loses its -1 literal.
  const Cnf cnf = make_cnf({{1}, {1, 2}, {-1, 2, 3}});
  const SimplifyResult result = simplify(cnf);
  EXPECT_FALSE(result.unsat);
  ASSERT_EQ(result.cnf.num_clauses(), 1u);
  EXPECT_EQ(result.cnf.clause(0), lits({2, 3}));
}

TEST(Simplify, DropsTautologies) {
  const Cnf cnf = make_cnf({{1, -1, 2}});
  const SimplifyResult result = simplify(cnf);
  EXPECT_EQ(result.cnf.num_clauses(), 0u);
  EXPECT_FALSE(result.unsat);
}

TEST(Simplify, PreservesVariableNumbering) {
  const Cnf cnf = make_cnf({{1}, {3, 4}});
  const SimplifyResult result = simplify(cnf);
  EXPECT_EQ(result.cnf.num_vars(), cnf.num_vars());
  EXPECT_EQ(result.cnf.clause(0), lits({3, 4}));
}

TEST(Simplify, ChainedConflictThroughUnits) {
  // Units force x0=1, x1=1, then clause (-1 -2) is falsified.
  const Cnf cnf = make_cnf({{1}, {2}, {-1, -2}});
  EXPECT_TRUE(simplify(cnf).unsat);
}

}  // namespace
}  // namespace berkmin
