// Clause normalization (cnf/simplify.h).
#include <gtest/gtest.h>

#include "cnf/simplify.h"
#include "test_util.h"

namespace berkmin {
namespace {

using testing::lits;

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

}  // namespace
}  // namespace berkmin
