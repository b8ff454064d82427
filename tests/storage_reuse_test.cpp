// Solver(options, spent) builds a solver in the buffers a finished one
// grew (a service's next session reuses its last closed one's memory).
// Only the capacity carries over: the new solver must answer, search and
// validate exactly as Solver(options) does.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "core/solver.h"
#include "gen/pigeonhole.h"
#include "gen/random_ksat.h"
#include "test_util.h"
#include "util/rng.h"

namespace berkmin {
namespace {

// What one solve left behind: the answer, the model or core, and the
// search counters so far.
struct Answer {
  SolveStatus status = SolveStatus::unknown;
  std::vector<Value> model;
  std::vector<Lit> failed;
  std::uint64_t propagations = 0;
  std::uint64_t conflicts = 0;
  std::uint64_t decisions = 0;

  friend bool operator==(const Answer&, const Answer&) = default;
};

Answer answer(const Solver& solver, SolveStatus status) {
  Answer out;
  out.status = status;
  if (status == SolveStatus::satisfiable) out.model = solver.model();
  out.failed = solver.failed_assumptions();
  out.propagations = solver.stats().propagations;
  out.conflicts = solver.stats().conflicts;
  out.decisions = solver.stats().decisions;
  return out;
}

// A session: load, then seeded rounds of a pushed group, assumption
// queries and a pop, checking the solver's invariants after every answer.
std::vector<Answer> run_session(Solver& solver, const Cnf& cnf,
                                std::uint64_t seed) {
  std::vector<Answer> answers;
  solver.load(cnf);
  answers.push_back(answer(solver, solver.solve()));
  Rng rng(seed);
  const int vars = cnf.num_vars();
  for (int round = 0; round < 6 && solver.ok(); ++round) {
    const GroupId group = solver.push_group();
    for (int i = 0; i < 8; ++i) {
      std::vector<Lit> clause;
      for (int k = 0; k < 3; ++k) {
        clause.push_back(Lit(static_cast<Var>(rng.below(vars)), rng.coin()));
      }
      solver.add_clause(clause);
    }
    for (int query = 0; query < 3; ++query) {
      std::vector<Lit> assumptions;
      for (int k = 0; k < 3; ++k) {
        assumptions.push_back(
            Lit(static_cast<Var>(rng.below(vars)), rng.coin()));
      }
      answers.push_back(
          answer(solver, solver.solve_with_assumptions(assumptions)));
      EXPECT_EQ(solver.validate_invariants(), "");
    }
    if (round % 2 == 0) solver.pop_group(group);
  }
  return answers;
}

TEST(SolverStorageReuse, ReusedSolverSearchesLikeANewOne) {
  // The spent solver ran a wider session under other options, so its
  // buffers hold more variables, clauses, watches and groups than the next
  // session needs.
  Solver spent(SolverOptions::chaff_like());
  run_session(spent, gen::pigeonhole(6), 5);
  ASSERT_GT(spent.num_vars(), 40);

  const Cnf cnf = gen::random_ksat(30, 128, 3, 17);
  Solver fresh(SolverOptions::berkmin());
  const std::vector<Answer> expected = run_session(fresh, cnf, 9);
  Solver reused(SolverOptions::berkmin(), std::move(spent));
  EXPECT_EQ(reused.num_vars(), 0);
  EXPECT_EQ(run_session(reused, cnf, 9), expected);
  EXPECT_EQ(reused.options().seed, fresh.options().seed);
}

TEST(SolverStorageReuse, ChainOfReusedSolversMatchesNewOnes) {
  // Each solver is built in the previous one's buffers, as a service's
  // sessions are; every one must match a new solver on its own formula.
  auto current = std::make_unique<Solver>();
  for (int i = 0; i < 4; ++i) {
    const Cnf cnf = i % 2 == 0 ? gen::pigeonhole(4 + i)
                               : gen::random_ksat(20 + 10 * i, 90 * i, 3, i);
    Solver fresh;
    const std::vector<Answer> expected = run_session(fresh, cnf, 100 + i);
    auto next =
        std::make_unique<Solver>(SolverOptions::berkmin(), std::move(*current));
    EXPECT_EQ(run_session(*next, cnf, 100 + i), expected) << "solver " << i;
    current = std::move(next);
  }
}

}  // namespace
}  // namespace berkmin
