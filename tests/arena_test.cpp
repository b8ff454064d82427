#include <gtest/gtest.h>

#include "core/clause_arena.h"
#include "test_util.h"

namespace berkmin {
namespace {

using testing::lits;

TEST(ClauseArena, AllocAndDeref) {
  ClauseArena arena;
  const auto clause_lits = lits({1, -2, 3});
  const ClauseRef ref = arena.alloc(clause_lits, false);
  const Clause c = arena.deref(ref);
  ASSERT_EQ(c.size(), 3u);
  EXPECT_FALSE(c.learned());
  EXPECT_EQ(c[0], from_dimacs(1));
  EXPECT_EQ(c[1], from_dimacs(-2));
  EXPECT_EQ(c[2], from_dimacs(3));
}

TEST(ClauseArena, LearnedFlag) {
  ClauseArena arena;
  const ClauseRef a = arena.alloc(lits({1, 2}), true);
  const ClauseRef b = arena.alloc(lits({1, 2}), false);
  EXPECT_TRUE(arena.deref(a).learned());
  EXPECT_FALSE(arena.deref(b).learned());
}

TEST(ClauseArena, ActivityCounter) {
  ClauseArena arena;
  const ClauseRef ref = arena.alloc(lits({1, 2}), true);
  Clause c = arena.deref(ref);
  EXPECT_EQ(c.activity(), 0u);
  c.bump_activity();
  c.bump_activity();
  EXPECT_EQ(arena.deref(ref).activity(), 2u);
  arena.deref(ref).set_activity(60);
  EXPECT_EQ(arena.deref(ref).activity(), 60u);
}

TEST(ClauseArena, MultipleClausesIndependent) {
  ClauseArena arena;
  std::vector<ClauseRef> refs;
  for (int i = 2; i <= 10; ++i) {
    std::vector<Lit> clause;
    for (int v = 0; v < i; ++v) clause.push_back(Lit::positive(v));
    refs.push_back(arena.alloc(clause, i % 2 == 0));
  }
  for (std::size_t i = 0; i < refs.size(); ++i) {
    const Clause c = arena.deref(refs[i]);
    EXPECT_EQ(c.size(), i + 2);
    EXPECT_EQ(c.learned(), (i + 2) % 2 == 0);
  }
}

TEST(ClauseArena, SetLitMutates) {
  ClauseArena arena;
  const ClauseRef ref = arena.alloc(lits({1, 2, 3}), false);
  Clause c = arena.deref(ref);
  c.set_lit(0, from_dimacs(-7));
  EXPECT_EQ(arena.deref(ref)[0], from_dimacs(-7));
}

TEST(ClauseArena, CopyTo) {
  ClauseArena arena;
  const auto original = lits({-4, 2, 9});
  const ClauseRef ref = arena.alloc(original, false);
  std::vector<Lit> out;
  arena.deref(ref).copy_to(out);
  EXPECT_EQ(out, original);
}

TEST(ClauseArena, ClearResets) {
  ClauseArena arena;
  arena.alloc(lits({1, 2}), false);
  EXPECT_GT(arena.size_words(), 0u);
  arena.clear();
  EXPECT_EQ(arena.size_words(), 0u);
}

}  // namespace
}  // namespace berkmin
