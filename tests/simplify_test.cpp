// Clause normalization (cnf/simplify.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

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

// What normalize_clause promises, spelled out: sort, unique, and the
// adjacent-variable tautology test.
bool reference_normalize(std::vector<Lit>& lits) {
  std::sort(lits.begin(), lits.end());
  lits.erase(std::unique(lits.begin(), lits.end()), lits.end());
  for (std::size_t i = 1; i < lits.size(); ++i) {
    if (lits[i].var() == lits[i - 1].var()) return false;
  }
  return true;
}

// Every clause of up to 4 literals over 3 variables (the inline path) and
// of 5 (the sorted one), in every order and with every repetition.
TEST(NormalizeClause, EverySmallClauseMatchesSortUniqueAndTautologyTest) {
  constexpr int codes = 6;  // the literals of variables 0..2
  std::size_t checked = 0;
  for (int length = 0; length <= 5; ++length) {
    int sequences = 1;
    for (int k = 0; k < length; ++k) sequences *= codes;
    for (int index = 0; index < sequences; ++index) {
      std::vector<Lit> clause;
      for (int k = 0, rest = index; k < length; ++k, rest /= codes) {
        clause.push_back(Lit::from_code(rest % codes));
      }
      std::vector<Lit> expected = clause;
      const bool kept = reference_normalize(expected);

      std::vector<Lit> as_vector = clause;
      ASSERT_EQ(normalize_clause(as_vector), kept);
      std::vector<Lit> as_span = clause;
      const std::size_t size = normalize_clause(std::span<Lit>(as_span));
      ASSERT_EQ(size != tautology, kept);
      if (kept) {
        EXPECT_EQ(as_vector, expected);
        as_span.resize(size);
        EXPECT_EQ(as_span, expected);
      }
      ++checked;
    }
  }
  EXPECT_EQ(checked, 1u + 6 + 36 + 216 + 1296 + 7776);
}

}  // namespace
}  // namespace berkmin
