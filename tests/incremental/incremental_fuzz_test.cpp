// Differential incremental fuzzer (ISSUE 5): seeded random
// push/add/pop/solve scripts replayed against one persistent Solver, with
// every intermediate answer checked against (a) a fresh-from-scratch
// Solver over the formula active at that moment and (b) the reference
// DPLL oracle. SAT answers must produce a model of the active formula
// that satisfies the assumptions; UNSAT answers must yield a
// failed-assumption core that re-solves to UNSAT when added as units.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <vector>

#include "cnf/icnf.h"
#include "core/solver.h"
#include "proof/live_certifier.h"
#include "reference/dpll.h"
#include "test_util.h"
#include "util/rng.h"

namespace berkmin {
namespace {

struct FuzzParams {
  int num_vars = 10;
  int max_ops = 22;
  std::uint64_t seed = 0;
  SolverOptions options = SolverOptions::berkmin();
};

std::vector<Lit> random_clause(Rng& rng, int num_vars, int max_len) {
  const int len = 1 + static_cast<int>(rng.below(
                          static_cast<std::uint64_t>(max_len)));
  std::vector<Lit> clause;
  for (int i = 0; i < len; ++i) {
    clause.push_back(Lit(static_cast<Var>(
                             rng.below(static_cast<std::uint64_t>(num_vars))),
                         rng.coin()));
  }
  return clause;
}

Cnf active_formula(const std::vector<std::vector<Lit>>& active, int num_vars) {
  Cnf cnf(num_vars);
  for (const auto& clause : active) cnf.add_clause(clause);
  return cnf;
}

// Runs one random script end to end.
void run_script(const FuzzParams& params) {
  Rng rng(params.seed * 0x9e3779b97f4a7c15ull + 12345);
  Solver solver(params.options);

  // Mirror of the active formula: the clause log is stack-shaped, so a
  // pop truncates to the matching mark.
  std::vector<std::vector<Lit>> active;
  std::vector<std::size_t> marks;

  int solves = 0;
  for (int op = 0; op < params.max_ops; ++op) {
    const std::uint64_t pick = rng.below(10);
    if (pick < 4) {
      // Add 1-3 clauses to the current scope.
      const int count = 1 + static_cast<int>(rng.below(3));
      for (int i = 0; i < count; ++i) {
        auto clause = random_clause(rng, params.num_vars, 3);
        active.push_back(clause);
        (void)solver.add_clause(clause);
      }
    } else if (pick < 6) {
      solver.push_group();
      marks.push_back(active.size());
    } else if (pick < 8 && !marks.empty()) {
      solver.pop_group(solver.innermost_group());
      active.resize(marks.back());
      marks.pop_back();
    } else {
      // Solve under 0-2 random assumptions.
      std::vector<Lit> assumptions;
      const int count = static_cast<int>(rng.below(3));
      for (int i = 0; i < count; ++i) {
        assumptions.push_back(
            Lit(static_cast<Var>(
                    rng.below(static_cast<std::uint64_t>(params.num_vars))),
                rng.coin()));
      }
      ++solves;

      const SolveStatus status = solver.solve_with_assumptions(assumptions);
      EXPECT_EQ(solver.validate_invariants(), "")
          << "seed " << params.seed << " solve " << solves;

      // Oracle 1: a fresh Solver over the active formula.
      const Cnf formula = active_formula(active, params.num_vars);
      Solver scratch(params.options);
      scratch.load(formula);
      const SolveStatus expected =
          scratch.solve_with_assumptions(assumptions);
      ASSERT_EQ(status, expected)
          << "seed " << params.seed << " solve " << solves
          << ": incremental diverged from scratch";

      // Oracle 2: reference DPLL on formula + assumption units.
      Cnf assumed = formula;
      for (const Lit a : assumptions) assumed.add_unit(a);
      const auto oracle = reference::dpll_solve(assumed);
      ASSERT_TRUE(oracle.completed);
      ASSERT_EQ(status == SolveStatus::satisfiable, oracle.satisfiable)
          << "seed " << params.seed << " solve " << solves
          << ": incremental diverged from DPLL";

      if (status == SolveStatus::satisfiable) {
        EXPECT_TRUE(formula.is_satisfied_by(solver.model()))
            << "seed " << params.seed << " solve " << solves;
        for (const Lit a : assumptions) {
          EXPECT_EQ(value_of_literal(solver.model()[a.var()], a),
                    Value::true_value)
              << "seed " << params.seed << " solve " << solves;
        }
      } else if (solver.ok()) {
        // Assumption-core re-solve: formula + core must be UNSAT, and the
        // core must only mention the caller's assumptions.
        const std::set<Lit> allowed(assumptions.begin(), assumptions.end());
        Cnf with_core = formula;
        for (const Lit l : solver.failed_assumptions()) {
          EXPECT_TRUE(allowed.count(l))
              << "seed " << params.seed << " solve " << solves
              << ": core leaked " << to_string(l);
          with_core.add_unit(l);
        }
        Solver core_check(params.options);
        core_check.load(with_core);
        EXPECT_EQ(core_check.solve(), SolveStatus::unsatisfiable)
            << "seed " << params.seed << " solve " << solves;
        EXPECT_FALSE(reference::dpll_solve(with_core).satisfiable)
            << "seed " << params.seed << " solve " << solves;
      }
    }
  }
}

class IncrementalFuzz : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalFuzz, ScriptMatchesScratchAndDpll) {
  FuzzParams params;
  params.seed = static_cast<std::uint64_t>(GetParam());
  // Vary the shape with the seed so the corpus covers small/large scopes.
  params.num_vars = 8 + static_cast<int>(params.seed % 5);
  params.max_ops = 18 + static_cast<int>(params.seed % 9);
  run_script(params);
}

// 110 seeds x the berkmin preset + 55 chaff + 55 minimizing = 220 scripts.
INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalFuzz, ::testing::Range(0, 110));

class IncrementalFuzzChaff : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalFuzzChaff, ScriptMatchesScratchAndDpll) {
  FuzzParams params;
  params.seed = static_cast<std::uint64_t>(GetParam()) + 1000;
  params.options = SolverOptions::chaff_like();
  params.num_vars = 8 + static_cast<int>(params.seed % 4);
  run_script(params);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalFuzzChaff,
                         ::testing::Range(0, 55));

class IncrementalFuzzMinimize : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalFuzzMinimize, ScriptMatchesScratchAndDpll) {
  FuzzParams params;
  params.seed = static_cast<std::uint64_t>(GetParam()) + 2000;
  params.options.minimize_learned = true;
  params.num_vars = 9 + static_cast<int>(params.seed % 4);
  run_script(params);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalFuzzMinimize,
                         ::testing::Range(0, 55));

class IncrementalFuzzInprocess : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalFuzzInprocess, ScriptMatchesScratchAndDpll) {
  // Inprocessing under the incremental API: every pass must stand down
  // while clause groups are active and var_elim additionally while a
  // solve holds assumptions, so the aggressive schedule here mostly
  // exercises those guards — answers must stay identical to the scratch
  // solver and the DPLL oracle either way.
  FuzzParams params;
  params.seed = static_cast<std::uint64_t>(GetParam()) + 3000;
  params.options.restart_interval = 20;
  params.options.inprocess.enabled = true;
  params.options.inprocess.interval_restarts = 1;
  params.num_vars = 8 + static_cast<int>(params.seed % 5);
  params.max_ops = 18 + static_cast<int>(params.seed % 9);
  run_script(params);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalFuzzInprocess,
                         ::testing::Range(0, 55));

// --- named-group scripts (ISSUE 10) ----------------------------------------

struct LiveGroup {
  GroupId id = no_group;
  bool active = true;
  std::vector<std::vector<Lit>> clauses;
};

// Random scripts over the *named* group surface: groups pop in random
// order (not LIFO), clauses land in arbitrary live groups via
// add_clause_to_group, and groups park/revive through set_group_active.
// Every answer is checked against a scratch re-solve of the formula
// active at that moment plus the DPLL oracle; SAT answers validate the
// model, UNSAT answers validate the failed-assumption core and certify
// the answer with the script's live resumable checker.
void run_named_group_script(std::uint64_t seed) {
  Rng rng(seed * 0x2545f4914f6cdd1dull + 99);
  Solver solver;
  proof::LiveCertifier certifier(solver, /*log=*/true, /*check=*/true);
  const int num_vars = 8 + static_cast<int>(seed % 5);

  std::vector<std::vector<Lit>> root;
  std::vector<LiveGroup> groups;
  const auto active_now = [&] {
    Cnf cnf(num_vars);
    for (const auto& clause : root) cnf.add_clause(clause);
    for (const auto& g : groups) {
      if (!g.active) continue;
      for (const auto& clause : g.clauses) cnf.add_clause(clause);
    }
    return cnf;
  };

  int solves = 0;
  for (int op = 0; op < 30; ++op) {
    const std::uint64_t pick = rng.below(12);
    if (pick < 4) {
      auto clause = random_clause(rng, num_vars, 3);
      if (groups.empty()) {
        root.push_back(clause);
        (void)certifier.add_clause(clause);
      } else {
        // Target a *random* live group, not necessarily the innermost.
        auto& g = groups[rng.below(groups.size())];
        ASSERT_TRUE(solver.group_is_live(g.id));
        (void)certifier.add_clause_to_group(g.id, clause);
        g.clauses.push_back(clause);
      }
    } else if (pick < 6 && groups.size() < 4) {
      groups.push_back({solver.push_group(), true, {}});
    } else if (pick < 8 && !groups.empty()) {
      const std::size_t at = rng.below(groups.size());  // random order
      ASSERT_TRUE(certifier.pop_group(groups[at].id));
      EXPECT_FALSE(solver.group_is_live(groups[at].id));
      groups.erase(groups.begin() + static_cast<std::ptrdiff_t>(at));
    } else if (pick < 9 && !groups.empty()) {
      auto& g = groups[rng.below(groups.size())];
      g.active = !g.active;
      ASSERT_TRUE(certifier.set_group_active(g.id, g.active));
    } else {
      std::vector<Lit> assumptions;
      for (std::uint64_t i = rng.below(3); i > 0; --i) {
        assumptions.push_back(
            Lit(static_cast<Var>(
                    rng.below(static_cast<std::uint64_t>(num_vars))),
                rng.coin()));
      }
      ++solves;
      const SolveStatus status = solver.solve_with_assumptions(assumptions);
      EXPECT_EQ(solver.validate_invariants(), "")
          << "seed " << seed << " solve " << solves;

      const Cnf formula = active_now();
      Solver scratch;
      scratch.load(formula);
      ASSERT_EQ(status, scratch.solve_with_assumptions(assumptions))
          << "seed " << seed << " solve " << solves
          << ": named-group script diverged from scratch";
      Cnf assumed = formula;
      for (const Lit a : assumptions) assumed.add_unit(a);
      const auto oracle = reference::dpll_solve(assumed);
      ASSERT_TRUE(oracle.completed);
      ASSERT_EQ(status == SolveStatus::satisfiable, oracle.satisfiable)
          << "seed " << seed << " solve " << solves
          << ": named-group script diverged from DPLL";

      if (status == SolveStatus::satisfiable) {
        EXPECT_TRUE(formula.is_satisfied_by(solver.model()))
            << "seed " << seed << " solve " << solves;
        EXPECT_FALSE(certifier.certifies(assumptions))
            << "seed " << seed << " solve " << solves
            << ": checker certified a satisfiable assumption set";
        for (const Lit a : assumptions) {
          EXPECT_EQ(value_of_literal(solver.model()[a.var()], a),
                    Value::true_value)
              << "seed " << seed << " solve " << solves;
        }
      } else {
        const std::set<Lit> allowed(assumptions.begin(), assumptions.end());
        Cnf with_core = formula;
        for (const Lit l : solver.failed_assumptions()) {
          EXPECT_TRUE(allowed.count(l))
              << "seed " << seed << " solve " << solves
              << ": core leaked " << to_string(l);
          with_core.add_unit(l);
        }
        EXPECT_FALSE(reference::dpll_solve(with_core).satisfiable)
            << "seed " << seed << " solve " << solves;
        EXPECT_TRUE(certifier.answer_certified())
            << "seed " << seed << " solve " << solves
            << ": UNSAT answer not certified";
        if (!solver.ok()) break;  // permanently refuted
      }
    }
  }
}

class NamedGroupFuzz : public ::testing::TestWithParam<int> {};

TEST_P(NamedGroupFuzz, ScriptMatchesScratchDpllAndDrat) {
  run_named_group_script(static_cast<std::uint64_t>(GetParam()) + 4000);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NamedGroupFuzz, ::testing::Range(0, 40));

// --- icnf script plumbing --------------------------------------------------

TEST(IcnfScript, RoundTripsThroughParse) {
  icnf::Script script;
  script.ops.push_back(icnf::Op::clause({from_dimacs(1), from_dimacs(-2)}));
  script.ops.push_back(icnf::Op::solve());
  script.ops.push_back(icnf::Op::push());
  script.ops.push_back(icnf::Op::clause({from_dimacs(2)}));
  script.ops.push_back(icnf::Op::solve({from_dimacs(-1)}));
  script.ops.push_back(icnf::Op::pop());
  script.ops.push_back(icnf::Op::solve());

  std::ostringstream out;
  icnf::write(out, script, "round trip");
  std::istringstream in(out.str());
  const icnf::Script parsed = icnf::parse(in);
  ASSERT_EQ(parsed.ops.size(), script.ops.size());
  for (std::size_t i = 0; i < script.ops.size(); ++i) {
    EXPECT_EQ(parsed.ops[i].kind, script.ops[i].kind) << "op " << i;
    EXPECT_EQ(parsed.ops[i].lits, script.ops[i].lits) << "op " << i;
  }
  EXPECT_EQ(parsed.num_solves(), 3u);
}

TEST(IcnfScript, RejectsUnbalancedPop) {
  std::istringstream in("p inccnf\npop 0\n");
  EXPECT_THROW(icnf::parse(in), std::runtime_error);
}

TEST(IcnfScript, SynthesizedScriptsReplayCorrectly) {
  // The smoke pipeline's synthesizer must produce scripts whose replay
  // agrees with scratch solving at every query.
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const Cnf cnf = [] {
      Cnf out;
      Rng clause_rng(99);
      for (int i = 0; i < 40; ++i) {
        out.add_clause(random_clause(clause_rng, 12, 3));
      }
      return out;
    }();
    const icnf::Script script = icnf::synthesize_from_cnf(cnf, seed);
    ASSERT_GE(script.num_solves(), 4u);

    Solver solver;
    std::vector<std::vector<Lit>> active;
    std::vector<std::size_t> marks;
    for (const icnf::Op& op : script.ops) {
      switch (op.kind) {
        case icnf::Op::Kind::add_clause:
          active.push_back(op.lits);
          (void)solver.add_clause(op.lits);
          break;
        case icnf::Op::Kind::push:
          solver.push_group();
          marks.push_back(active.size());
          break;
        case icnf::Op::Kind::pop:
          solver.pop_group(solver.innermost_group());
          active.resize(marks.back());
          marks.pop_back();
          break;
        case icnf::Op::Kind::solve: {
          const SolveStatus status = solver.solve_with_assumptions(op.lits);
          Solver scratch;
          scratch.load(active_formula(active, cnf.num_vars()));
          EXPECT_EQ(status, scratch.solve_with_assumptions(op.lits))
              << "seed " << seed;
          break;
        }
      }
    }
  }
}

}  // namespace
}  // namespace berkmin
