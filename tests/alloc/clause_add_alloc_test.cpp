// Adding original clauses allocates nothing in steady state, on both sides
// of a certified session: Solver::add_clause_to_group and
// DratChecker::add_original keep every clause in pooled storage, so the
// heap is touched only when a pool or a per-variable table grows (a
// logarithmic number of times) and once per group. Through the service,
// a session that starts in a closed session's storage adds without a
// single allocation, and so does a steady-state query, which runs in the
// session's own query record and answers into the caller's buffers. This
// binary replaces the global operator new with a
// counting one, which is why it is its own executable.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "core/solver.h"
#include "engines/backend.h"
#include "portfolio/portfolio.h"
#include "proof/drat_checker.h"
#include "service/solver_service.h"
#include "util/rng.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace berkmin {
namespace {

constexpr int kFrames = 100;
constexpr int kLatches = 50;
constexpr int kInputs = 20;
constexpr int kGates = 300;
// Fewer than one allocation per twenty clauses, amortized over the stream.
constexpr double kMaxAllocationsPerClause = 0.05;
// A steady-state session query reuses the session's query record and the
// caller's result buffers.
constexpr double kMaxAllocationsPerQuery = 0.0;

struct FrameClause {
  int frame;
  std::vector<Lit> lits;
};

// A stream shaped like bounded model checking: frame after frame of fresh
// latch, input and AND-gate variables. Each gate contributes its three
// Tseitin clauses, each latch the two clauses tying it to a gate of the
// previous frame, and frame 0 the latches' initial values as units. 1,000
// clauses per frame, 100,000 in all, each tagged with its frame.
std::vector<FrameClause> bmc_stream() {
  constexpr int kFrameVars = kLatches + kInputs + kGates;
  Rng rng(42);
  std::vector<FrameClause> stream;
  const auto var = [](int frame, int index) {
    return static_cast<Var>(frame * kFrameVars + index);
  };
  for (int t = 0; t < kFrames; ++t) {
    for (int l = 0; l < kLatches; ++l) {
      const Lit latch = Lit::positive(var(t, l));
      if (t == 0) {
        stream.push_back({t, {l % 3 == 0 ? latch : ~latch}});
        continue;
      }
      const Lit next = Lit::positive(var(t - 1, kLatches + kInputs + l));
      stream.push_back({t, {~latch, next}});
      stream.push_back({t, {latch, ~next}});
    }
    for (int g = 0; g < kGates; ++g) {
      const int index = kLatches + kInputs + g;
      const Lit out = Lit::positive(var(t, index));
      const auto operand = [&] {
        return Lit(var(t, static_cast<int>(rng.below(
                              static_cast<std::uint64_t>(index)))),
                   rng.coin());
      };
      const Lit a = operand();
      const Lit b = operand();
      stream.push_back({t, {~out, a}});
      stream.push_back({t, {~out, b}});
      stream.push_back({t, {out, ~a, ~b}});
    }
  }
  return stream;
}

double allocations_per_clause(std::uint64_t allocations, std::size_t clauses) {
  return static_cast<double>(allocations) / static_cast<double>(clauses);
}

TEST(ClauseAddAllocations, SolverAddClauseToGroupIsAllocationFree) {
  const std::vector<FrameClause> stream = bmc_stream();
  ASSERT_EQ(stream.size(), 100'000u - kLatches);
  Solver solver(SolverOptions::berkmin());
  std::vector<GroupId> frames;
  frames.reserve(kFrames);
  const std::uint64_t before = g_allocations.load();
  for (const FrameClause& clause : stream) {
    if (clause.frame == static_cast<int>(frames.size())) {
      frames.push_back(solver.push_group());
    }
    ASSERT_TRUE(solver.add_clause_to_group(frames[clause.frame], clause.lits));
  }
  const std::uint64_t allocations = g_allocations.load() - before;
  EXPECT_LT(allocations_per_clause(allocations, stream.size()),
            kMaxAllocationsPerClause)
      << allocations << " allocations for " << stream.size() << " clauses";
}

TEST(ClauseAddAllocations, CheckerAddOriginalIsAllocationFree) {
  const std::vector<FrameClause> stream = bmc_stream();
  proof::DratChecker checker;
  // A trace deletion builds the checker's deletion index, which every
  // later original then enters too: the steady state of a long session.
  proof::Proof trace;
  trace.del(std::vector<Lit>{Lit::positive(0), Lit::positive(1)});
  checker.consume(trace);
  const std::uint64_t before = g_allocations.load();
  for (const FrameClause& clause : stream) {
    checker.add_original(clause.lits, clause.frame);
  }
  const std::uint64_t allocations = g_allocations.load() - before;
  EXPECT_LT(allocations_per_clause(allocations, stream.size()),
            kMaxAllocationsPerClause)
      << allocations << " allocations for " << stream.size() << " clauses";
  EXPECT_FALSE(checker.refuted());
}

service::SessionRequest certified_session() {
  service::SessionRequest request;
  request.proof.log = true;
  request.proof.check = true;
  return request;
}

TEST(ClauseAddAllocations, WarmSessionAddClauseIsAllocationFree) {
  const std::vector<FrameClause> stream = bmc_stream();
  service::SolverService service({.num_workers = 1});
  // The first session grows the solver's and the checker's storage; its
  // close hands both to the next session, whose adds then fit in them.
  for (int run = 0; run < 2; ++run) {
    const auto id = service.open_session(certified_session());
    ASSERT_TRUE(id.has_value());
    const std::uint64_t before = g_allocations.load();
    for (const FrameClause& clause : stream) {
      ASSERT_TRUE(service.session_apply(*id, icnf::Op::clause(clause.lits)));
    }
    const std::uint64_t allocations = g_allocations.load() - before;
    if (run == 1) {
      EXPECT_EQ(allocations, 0u)
          << allocations << " allocations for " << stream.size()
          << " clauses";
    }
    ASSERT_TRUE(service.close_session(*id));
  }
  EXPECT_EQ(service.stats().sessions_reused, 1u);
  EXPECT_EQ(service.stats().session_clauses_added, 2 * stream.size());
}

TEST(ClauseAddAllocations, PortfolioLoadIsAllocationFreePerClause) {
  // A portfolio logs a loaded formula into one flat icnf::Script: its
  // allocations follow the log's growth, not the number of clauses.
  const std::vector<FrameClause> stream = bmc_stream();
  Cnf cnf;
  for (const FrameClause& clause : stream) cnf.add_clause(clause.lits);
  const std::unique_ptr<SatEngine> engine =
      portfolio::make_engine(SolverOptions{}, 2);
  const std::uint64_t before = g_allocations.load();
  ASSERT_TRUE(engine->load(cnf));
  const std::uint64_t allocations = g_allocations.load() - before;
  EXPECT_LT(allocations_per_clause(allocations, stream.size()),
            kMaxAllocationsPerClause)
      << allocations << " allocations for " << stream.size() << " clauses";
}

TEST(ClauseAddAllocations, SteadyStateSessionQueryAllocatesAtMostABound) {
  // Frame 0 of the stream is satisfiable; two more clauses rule out a
  // fresh variable a. Queries alternate a SAT answer, with a model, and a
  // certified UNSAT one under {a}, with a failed core.
  const std::vector<FrameClause> stream = bmc_stream();
  service::SolverService service({.num_workers = 1});
  engines::SessionBackend session(service, certified_session());
  ASSERT_TRUE(session.alive());
  Var fresh = 0;
  for (const FrameClause& clause : stream) {
    if (clause.frame > 0) break;
    ASSERT_TRUE(session.add_clause(clause.lits));
    for (const Lit l : clause.lits) fresh = std::max(fresh, l.var() + 1);
  }
  const Lit a = Lit::positive(fresh);
  const Lit b = Lit::positive(fresh + 1);
  ASSERT_TRUE(session.add_binary(~a, b));
  ASSERT_TRUE(session.add_binary(~a, ~b));
  const Lit sat[] = {~a};
  const Lit unsat[] = {a};
  const auto query = [&](int i) {
    const bool odd = i % 2 != 0;
    const SolveStatus status =
        session.solve(odd ? std::span<const Lit>(unsat) : sat,
                      Budget::unlimited());
    ASSERT_EQ(status, odd ? SolveStatus::unsatisfiable
                          : SolveStatus::satisfiable);
    if (odd) {
      ASSERT_TRUE(session.last_result().proof_valid);
    } else {
      ASSERT_FALSE(session.model_value(a));
    }
  };
  constexpr int kWarmUp = 100;
  constexpr int kQueries = 1000;
  for (int i = 0; i < kWarmUp; ++i) query(i);
  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < kQueries; ++i) query(i);
  const std::uint64_t allocations = g_allocations.load() - before;
  EXPECT_LE(static_cast<double>(allocations) / kQueries,
            kMaxAllocationsPerQuery)
      << allocations << " allocations for " << kQueries << " queries";
}

}  // namespace
}  // namespace berkmin
