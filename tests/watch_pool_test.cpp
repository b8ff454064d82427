// Edge cases of the flat watcher storage (core/watch_pool.h): all-binary
// formulas that live entirely in the BinWatch pool, spans left empty by a
// reduction, and compaction when every span carries slack.
#include <gtest/gtest.h>

#include "core/solver.h"
#include "core/watch_pool.h"
#include "test_util.h"
#include "util/rng.h"

namespace berkmin {
namespace {

using testing::lits;
using testing::make_cnf;

TEST(FlatWatchLists, GrowthTracksWasteAndCompactReclaimsIt) {
  FlatWatchLists<Watcher> lists;
  lists.resize_literals(4);
  // 5 pushes on one span: capacities 4 then 8. Another span was laid out
  // after it meanwhile, so the growth relocates and abandons the first
  // slots.
  for (std::uint32_t i = 0; i < 5; ++i) {
    if (i == 4) lists.push(2, Watcher{9, Lit::positive(0)});
    lists.push(1, Watcher{i, Lit::positive(0)});
  }
  EXPECT_EQ(lists.size(1), 5u);
  EXPECT_EQ(lists.wasted(), 4u);
  EXPECT_EQ(lists.live(), 6u);
  EXPECT_GT(lists.pool_slots(), lists.live());

  lists.compact();
  EXPECT_EQ(lists.wasted(), 0u);
  EXPECT_EQ(lists.pool_slots(), 6u);
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(lists.data(1)[i].cref, i);
  }
}

TEST(FlatWatchLists, CompactionWhenEverySpanHasSlack) {
  FlatWatchLists<BinWatch> lists;
  constexpr std::size_t codes = 8;
  lists.resize_literals(codes);
  // One entry per span: every span gets initial capacity 4, so 3 slots of
  // slack each. Compaction must snap capacity to length for all of them
  // while preserving order and contents.
  for (std::size_t code = 0; code < codes; ++code) {
    lists.push(code, BinWatch{Lit::from_code(static_cast<std::int32_t>(code)),
                              static_cast<ClauseRef>(code)});
  }
  EXPECT_EQ(lists.live(), codes);
  EXPECT_EQ(lists.pool_slots(), 4 * codes);

  lists.compact();
  EXPECT_EQ(lists.pool_slots(), codes);
  EXPECT_EQ(lists.wasted(), 0u);
  for (std::size_t code = 0; code < codes; ++code) {
    ASSERT_EQ(lists.size(code), 1u);
    EXPECT_EQ(lists.data(code)[0].cref, static_cast<ClauseRef>(code));
  }
  // Spans are at capacity now: the next push must relocate, not corrupt.
  lists.push(0, BinWatch{Lit::positive(9), 99});
  EXPECT_EQ(lists.size(0), 2u);
  EXPECT_EQ(lists.data(0)[1].cref, 99u);
  EXPECT_EQ(lists.wasted(), 1u);
}

TEST(FlatWatchLists, RebuildLaysOutExactCountsIncludingEmptySpans) {
  FlatWatchLists<Watcher> lists;
  lists.resize_literals(6);
  for (int i = 0; i < 7; ++i) lists.push(2, Watcher{static_cast<ClauseRef>(i), undef_lit});
  lists.push(5, Watcher{100, undef_lit});

  // Rebuild with several empty spans and shifted counts.
  lists.rebuild({0, 2, 0, 0, 1, 0});
  EXPECT_EQ(lists.live(), 0u);
  EXPECT_EQ(lists.pool_slots(), 3u);
  EXPECT_EQ(lists.wasted(), 0u);
  for (std::size_t code : {0u, 2u, 3u, 5u}) EXPECT_EQ(lists.size(code), 0u);
  lists.push(1, Watcher{7, undef_lit});
  lists.push(1, Watcher{8, undef_lit});
  lists.push(4, Watcher{9, undef_lit});
  // Exactly the announced counts fit with zero waste.
  EXPECT_EQ(lists.wasted(), 0u);
  EXPECT_EQ(lists.live(), 3u);
  EXPECT_EQ(lists.data(4)[0].cref, 9u);
}

TEST(FlatWatchLists, GrowthAtThePoolTailMovesAndWastesNothing) {
  FlatWatchLists<Watcher> lists;
  lists.resize_literals(4);
  // The only span ends the pool at every growth: 4, 8, ..., 128 slots.
  for (std::uint32_t i = 0; i < 100; ++i) lists.push(3, Watcher{i, undef_lit});
  EXPECT_EQ(lists.wasted(), 0u);
  EXPECT_EQ(lists.offset(3), 0u);
  EXPECT_EQ(lists.pool_slots(), 128u);
  for (std::uint32_t i = 0; i < 100; ++i) EXPECT_EQ(lists.data(3)[i].cref, i);

  // A span laid out behind it makes its next growth a relocation again.
  lists.push(0, Watcher{500, undef_lit});
  for (std::uint32_t i = 100; i < 129; ++i) lists.push(3, Watcher{i, undef_lit});
  EXPECT_EQ(lists.wasted(), 128u);
  for (std::uint32_t i = 0; i < 129; ++i) EXPECT_EQ(lists.data(3)[i].cref, i);
  EXPECT_EQ(lists.data(0)[0].cref, 500u);
}

// Random pushes over a few literals, against a list-of-vectors model: the
// lists keep their contents and order, every pool slot is either in a
// span's capacity or counted by wasted(), and compact() and reserve() lay
// the pool out exactly as they do for the same lists filled literal by
// literal.
TEST(FlatWatchLists, GrowthKeepsContentsWasteAndLayouts) {
  constexpr std::size_t codes = 6;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    FlatWatchLists<Watcher> lists;
    lists.resize_literals(codes);
    std::vector<std::vector<ClauseRef>> model(codes);
    for (ClauseRef i = 0; i < 400; ++i) {
      // Bias toward the last literal touched, so tail growth happens often.
      const std::size_t code =
          rng.chance(0.6) && i > 0 ? static_cast<std::size_t>(i % codes)
                                   : static_cast<std::size_t>(rng.below(codes));
      lists.push(code, Watcher{i, undef_lit});
      model[code].push_back(i);
    }
    std::size_t capacity = 0;
    for (std::size_t code = 0; code < codes; ++code) {
      ASSERT_EQ(lists.size(code), model[code].size());
      for (std::size_t k = 0; k < model[code].size(); ++k) {
        EXPECT_EQ(lists.data(code)[k].cref, model[code][k]);
      }
      capacity += lists.span(code).cap;
    }
    EXPECT_EQ(capacity + lists.wasted(), lists.pool_slots());

    FlatWatchLists<Watcher> in_order;
    in_order.resize_literals(codes);
    for (std::size_t code = 0; code < codes; ++code) {
      for (const ClauseRef ref : model[code]) {
        in_order.push(code, Watcher{ref, undef_lit});
      }
    }
    const auto same_layout = [&](const FlatWatchLists<Watcher>& a,
                                 const FlatWatchLists<Watcher>& b) {
      ASSERT_EQ(a.pool_slots(), b.pool_slots());
      EXPECT_EQ(a.wasted(), b.wasted());
      for (std::size_t code = 0; code < codes; ++code) {
        EXPECT_EQ(a.span(code).offset, b.span(code).offset);
        EXPECT_EQ(a.span(code).len, b.span(code).len);
        EXPECT_EQ(a.span(code).cap, b.span(code).cap);
        for (std::uint32_t k = 0; k < a.size(code); ++k) {
          EXPECT_EQ(a.data(code)[k].cref, b.data(code)[k].cref);
        }
      }
    };
    FlatWatchLists<Watcher> reserved = lists;
    FlatWatchLists<Watcher> reserved_in_order = in_order;
    const std::vector<std::uint32_t> extra = {3, 0, 1, 7, 0, 2};
    reserved.reserve(extra);
    reserved_in_order.reserve(extra);
    same_layout(reserved, reserved_in_order);
    lists.compact();
    in_order.compact();
    same_layout(lists, in_order);
  }
}

TEST(FlatWatchLists, TruncateKeepsPrefix) {
  FlatWatchLists<Watcher> lists;
  lists.resize_literals(2);
  for (std::uint32_t i = 0; i < 4; ++i) lists.push(0, Watcher{i, undef_lit});
  lists.truncate(0, 2);
  EXPECT_EQ(lists.size(0), 2u);
  EXPECT_EQ(lists.data(0)[1].cref, 1u);
}

TEST(WatchPoolSolver, AllBinaryFormulaSolvesThroughBinPoolOnly) {
  // An implication cycle forcing equivalences plus one conflicting pair:
  // every clause is binary, so the long-clause pool stays empty and BCP
  // runs exclusively over BinWatch spans.
  const Cnf cnf = make_cnf({{-1, 2}, {-2, 3}, {-3, 1},   // 1 -> 2 -> 3 -> 1
                            {1, 2}, {-3, -1}});
  Solver solver;
  solver.load(cnf);
  EXPECT_EQ(solver.validate_invariants(), "");
  const SolveStatus status = solver.solve();
  EXPECT_EQ(status, SolveStatus::unsatisfiable);
}

TEST(WatchPoolSolver, AllBinarySatisfiableWithReductions) {
  // A larger all-binary chain, restarted aggressively so the reduce/
  // garbage-collect rebuild path runs over a pool with no long clauses.
  Cnf cnf;
  constexpr int n = 40;
  for (int i = 0; i + 1 < n; ++i) {
    cnf.add_binary(Lit::negative(i), Lit::positive(i + 1));
  }
  cnf.add_binary(Lit::positive(0), Lit::positive(n - 1));
  SolverOptions options;
  options.restart_interval = 5;
  Solver solver(options);
  solver.load(cnf);
  EXPECT_EQ(solver.solve(), SolveStatus::satisfiable);
  EXPECT_EQ(solver.validate_invariants(), "");
  solver.restart_now();
  EXPECT_EQ(solver.validate_invariants(), "");
}

TEST(WatchPoolSolver, ReduceLeavesEmptySpansForSatisfiedLiterals) {
  // Unit 1 satisfies every clause containing 1 at the root: after the
  // restart's reduction, those occurrence spans must be empty and the
  // invariants must still hold (spans with len 0 are legal everywhere).
  const Cnf cnf = make_cnf({{1}, {1, 2, 3}, {1, 4, 5}, {1, -2, 6},
                            {-4, 5, 6}, {2, -6, 7}});
  Solver solver;
  solver.load(cnf);
  ASSERT_EQ(solver.solve(), SolveStatus::satisfiable);
  solver.restart_now();  // reduction strips the satisfied clauses
  EXPECT_EQ(solver.validate_invariants(), "");
  EXPECT_LT(solver.num_originals(), cnf.num_clauses());
}

TEST(WatchPoolSolver, CompactionAtRestartKeepsInvariants) {
  // Enough growth churn to leave slack in many spans, then restart (the
  // compaction point) and validate the full watch bookkeeping.
  Cnf cnf;
  for (int i = 0; i < 30; ++i) {
    cnf.add_ternary(Lit::positive(i), Lit::negative((i + 7) % 30),
                    Lit::positive((i + 13) % 30));
  }
  SolverOptions options;
  options.restart_interval = 10;
  Solver solver(options);
  solver.load(cnf);
  ASSERT_NE(solver.solve(), SolveStatus::unknown);
  solver.restart_now();
  EXPECT_EQ(solver.validate_invariants(), "");
}

}  // namespace
}  // namespace berkmin
