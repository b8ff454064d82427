#include <gtest/gtest.h>

#include "cnf/cnf_formula.h"
#include "test_util.h"

namespace berkmin {
namespace {

using testing::lits;
using testing::make_cnf;

TEST(Cnf, StartsEmpty) {
  Cnf cnf;
  EXPECT_EQ(cnf.num_vars(), 0);
  EXPECT_EQ(cnf.num_clauses(), 0u);
  EXPECT_EQ(cnf.num_literals(), 0u);
}

TEST(Cnf, AddClauseGrowsVars) {
  Cnf cnf;
  cnf.add_clause(lits({1, -3}));
  EXPECT_EQ(cnf.num_vars(), 3);  // variable x2 (0-based) implies 3 vars
  EXPECT_EQ(cnf.num_clauses(), 1u);
  EXPECT_EQ(cnf.num_literals(), 2u);
}

TEST(Cnf, ExplicitVarReservation) {
  Cnf cnf(10);
  EXPECT_EQ(cnf.num_vars(), 10);
  const Var v = cnf.add_var();
  EXPECT_EQ(v, 10);
  EXPECT_EQ(cnf.num_vars(), 11);
  const Var first = cnf.add_vars(5);
  EXPECT_EQ(first, 11);
  EXPECT_EQ(cnf.num_vars(), 16);
}

TEST(Cnf, StoresClausesVerbatim) {
  Cnf cnf;
  cnf.add_clause(lits({2, 2, -2}));  // duplicates and complements kept
  ASSERT_EQ(cnf.num_clauses(), 1u);
  EXPECT_EQ(cnf.clause(0).size(), 3u);
}

TEST(Cnf, EmptyClauseAllowed) {
  Cnf cnf;
  cnf.add_clause(std::vector<Lit>{});
  EXPECT_EQ(cnf.num_clauses(), 1u);
  EXPECT_TRUE(cnf.clause(0).empty());
}

TEST(Cnf, IsSatisfiedBy) {
  const Cnf cnf = make_cnf({{1, 2}, {-1, 2}});
  std::vector<Value> model{Value::false_value, Value::true_value};
  EXPECT_TRUE(cnf.is_satisfied_by(model));
  model[1] = Value::false_value;
  EXPECT_FALSE(cnf.is_satisfied_by(model));
}

TEST(Cnf, UnassignedModelValueSatisfiesNothing) {
  const Cnf cnf = make_cnf({{1}});
  EXPECT_FALSE(cnf.is_satisfied_by({Value::unassigned}));
}

TEST(Cnf, ShortModelVectorIsHandled) {
  const Cnf cnf = make_cnf({{1, 3}});
  // Model shorter than num_vars: missing variables count as unassigned.
  EXPECT_TRUE(cnf.is_satisfied_by({Value::true_value}));
  EXPECT_FALSE(cnf.is_satisfied_by({Value::false_value}));
}

TEST(Cnf, EmptyAndUnitClausesKeepTheirPlace) {
  Cnf cnf;
  cnf.add_clause({});
  cnf.add_unit(from_dimacs(-4));
  cnf.add_clause(lits({1, 2}));
  cnf.add_clause({});
  cnf.add_unit(from_dimacs(3));
  ASSERT_EQ(cnf.num_clauses(), 5u);
  EXPECT_TRUE(cnf.clause(0).empty());
  ASSERT_EQ(cnf.clause(1).size(), 1u);
  EXPECT_EQ(cnf.clause(1)[0], from_dimacs(-4));
  EXPECT_EQ(cnf.clause(2).size(), 2u);
  EXPECT_TRUE(cnf.clause(3).empty());
  ASSERT_EQ(cnf.clause(4).size(), 1u);
  EXPECT_EQ(cnf.clause(4)[0], from_dimacs(3));
  EXPECT_EQ(cnf.num_vars(), 4);
}

TEST(Cnf, NumLiteralsCountsEveryClause) {
  Cnf cnf;
  std::size_t expected = 0;
  for (int size = 0; size < 40; ++size) {
    std::vector<Lit> clause;
    for (int i = 0; i < size; ++i) clause.push_back(Lit::positive(i));
    cnf.add_clause(clause);
    expected += static_cast<std::size_t>(size);
    EXPECT_EQ(cnf.num_literals(), expected);
  }
  std::size_t summed = 0;
  for (const auto clause : cnf.clauses()) summed += clause.size();
  EXPECT_EQ(summed, expected);
}

TEST(Cnf, AddLiteralWritesAClauseInPlace) {
  Cnf cnf;
  cnf.add_unit(from_dimacs(1));
  cnf.add_literal(from_dimacs(-2));
  cnf.add_literal(from_dimacs(5));
  // The open clause is invisible until it is closed.
  EXPECT_EQ(cnf.num_clauses(), 1u);
  EXPECT_EQ(cnf.num_literals(), 1u);
  cnf.end_clause();
  cnf.end_clause();  // nothing open: the empty clause
  ASSERT_EQ(cnf.num_clauses(), 3u);
  EXPECT_EQ(cnf.clause(1)[0], from_dimacs(-2));
  EXPECT_EQ(cnf.clause(1)[1], from_dimacs(5));
  EXPECT_TRUE(cnf.clause(2).empty());
  EXPECT_EQ(cnf.num_vars(), 5);
}

// clause(i) is a view into the literal array, which the next add may move:
// a producer that re-adds a clause of the same formula copies it first.
TEST(Cnf, ClauseViewsAreCopiedBeforeTheNextAdd) {
  Cnf cnf = make_cnf({{1, -2, 3}});
  for (int round = 0; round < 200; ++round) {
    const auto view = cnf.clause(static_cast<std::size_t>(round));
    const std::vector<Lit> copy(view.begin(), view.end());
    cnf.add_clause(copy);  // may reallocate: `view` dangles from here on
  }
  ASSERT_EQ(cnf.num_clauses(), 201u);
  for (const auto clause : cnf.clauses()) {
    EXPECT_EQ(std::vector<Lit>(clause.begin(), clause.end()),
              lits({1, -2, 3}));
  }
}


TEST(Cnf, HelperArities) {
  Cnf cnf;
  cnf.add_unit(from_dimacs(1));
  cnf.add_binary(from_dimacs(1), from_dimacs(-2));
  cnf.add_ternary(from_dimacs(1), from_dimacs(2), from_dimacs(3));
  ASSERT_EQ(cnf.num_clauses(), 3u);
  EXPECT_EQ(cnf.clause(0).size(), 1u);
  EXPECT_EQ(cnf.clause(1).size(), 2u);
  EXPECT_EQ(cnf.clause(2).size(), 3u);
}

}  // namespace
}  // namespace berkmin
