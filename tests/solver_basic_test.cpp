// Basic solver behaviour: trivial formulas, root-level edge cases, model
// validity, repeated solving, option presets.
#include <gtest/gtest.h>

#include "core/solver.h"
#include "test_util.h"

namespace berkmin {
namespace {

using testing::lits;
using testing::make_cnf;

// A small UNSAT formula that needs real search: 4 pigeons into 3 holes.
Cnf gen_hard_unsat() {
  Cnf cnf;
  const auto var_of = [](int pigeon, int hole) { return pigeon * 3 + hole; };
  for (int p = 0; p < 4; ++p) {
    std::vector<Lit> somewhere;
    for (int h = 0; h < 3; ++h) somewhere.push_back(Lit::positive(var_of(p, h)));
    cnf.add_clause(somewhere);
  }
  for (int h = 0; h < 3; ++h) {
    for (int p = 0; p < 4; ++p) {
      for (int q = p + 1; q < 4; ++q) {
        cnf.add_binary(Lit::negative(var_of(p, h)), Lit::negative(var_of(q, h)));
      }
    }
  }
  return cnf;
}

TEST(SolverBasic, EmptyFormulaIsSat) {
  Solver solver;
  EXPECT_EQ(solver.solve(), SolveStatus::satisfiable);
}

TEST(SolverBasic, SingleUnit) {
  Solver solver;
  solver.add_clause({from_dimacs(1)});
  ASSERT_EQ(solver.solve(), SolveStatus::satisfiable);
  EXPECT_TRUE(solver.model_value(from_dimacs(1)));
}

TEST(SolverBasic, ContradictingUnits) {
  Solver solver;
  solver.add_clause({from_dimacs(1)});
  solver.add_clause({from_dimacs(-1)});
  EXPECT_EQ(solver.solve(), SolveStatus::unsatisfiable);
  EXPECT_FALSE(solver.ok());
}

TEST(SolverBasic, EmptyClauseIsUnsat) {
  Solver solver;
  EXPECT_FALSE(solver.add_clause(std::span<const Lit>{}));
  EXPECT_EQ(solver.solve(), SolveStatus::unsatisfiable);
}

TEST(SolverBasic, TautologyIsDropped) {
  Solver solver;
  solver.add_clause(lits({1, -1}));
  EXPECT_EQ(solver.num_originals(), 0u);
  EXPECT_EQ(solver.solve(), SolveStatus::satisfiable);
}

TEST(SolverBasic, DuplicateLiteralsMerged) {
  Solver solver;
  solver.add_clause(lits({2, 2, 2}));
  ASSERT_EQ(solver.solve(), SolveStatus::satisfiable);
  EXPECT_TRUE(solver.model_value(from_dimacs(2)));
}

TEST(SolverBasic, SimpleImplicationChain) {
  // 1, 1->2, 2->3, 3->4
  Solver solver;
  solver.load(make_cnf({{1}, {-1, 2}, {-2, 3}, {-3, 4}}));
  ASSERT_EQ(solver.solve(), SolveStatus::satisfiable);
  for (int v = 1; v <= 4; ++v) EXPECT_TRUE(solver.model_value(from_dimacs(v)));
}

TEST(SolverBasic, PaperSection2Example) {
  // F = (a | ~b)(b | ~c | y)(c | ~d | x)(c | d) with x=0, y=0 forced:
  // satisfiable, but any branch a=0 triggers the conflict analyzed in the
  // paper. Variables: a=1, b=2, c=3, d=4, x=5, y=6.
  const Cnf cnf = make_cnf(
      {{1, -2}, {2, -3, 6}, {3, -4, 5}, {3, 4}, {-5}, {-6}});
  for (const auto& options : testing::all_paper_configs()) {
    Solver solver(options);
    solver.load(cnf);
    ASSERT_EQ(solver.solve(), SolveStatus::satisfiable) << options.describe();
    EXPECT_TRUE(cnf.is_satisfied_by(solver.model())) << options.describe();
  }
}

TEST(SolverBasic, ModelSatisfiesFormula) {
  const Cnf cnf = make_cnf({{1, 2, 3}, {-1, -2}, {-2, -3}, {-1, -3}, {2, 3}});
  Solver solver;
  solver.load(cnf);
  ASSERT_EQ(solver.solve(), SolveStatus::satisfiable);
  EXPECT_TRUE(cnf.is_satisfied_by(solver.model()));
}

TEST(SolverBasic, SmallUnsat) {
  // All four sign combinations over two variables.
  Solver solver;
  solver.load(make_cnf({{1, 2}, {1, -2}, {-1, 2}, {-1, -2}}));
  EXPECT_EQ(solver.solve(), SolveStatus::unsatisfiable);
}

TEST(SolverBasic, SolveTwiceIsStable) {
  Solver solver;
  solver.load(make_cnf({{1, 2}, {-1, 2}}));
  EXPECT_EQ(solver.solve(), SolveStatus::satisfiable);
  EXPECT_EQ(solver.solve(), SolveStatus::satisfiable);
}

TEST(SolverBasic, AddClausesBetweenSolves) {
  Solver solver;
  solver.load(make_cnf({{1, 2}}));
  ASSERT_EQ(solver.solve(), SolveStatus::satisfiable);
  solver.add_clause(lits({-1}));
  solver.add_clause(lits({-2}));
  EXPECT_EQ(solver.solve(), SolveStatus::unsatisfiable);
}

TEST(SolverBasic, SolveAfterUnsatStaysUnsat) {
  Solver solver;
  solver.load(make_cnf({{1}, {-1}}));
  EXPECT_EQ(solver.solve(), SolveStatus::unsatisfiable);
  EXPECT_EQ(solver.solve(), SolveStatus::unsatisfiable);
}

TEST(SolverBasic, NewVarGrowsState) {
  Solver solver;
  const Var a = solver.new_var();
  const Var b = solver.new_var();
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(solver.num_vars(), 2);
}

TEST(SolverBasic, AddClauseAutoCreatesVars) {
  Solver solver;
  solver.add_clause(lits({10}));
  EXPECT_GE(solver.num_vars(), 10);
}

TEST(SolverBasic, RootFalseLiteralsStripped) {
  Solver solver;
  solver.add_clause(lits({-1}));
  solver.add_clause(lits({1, 2, 3}));  // shrinks to (2 3)
  EXPECT_EQ(solver.num_originals(), 1u);
  EXPECT_EQ(solver.solve(), SolveStatus::satisfiable);
}

TEST(SolverBasic, SatisfiedAtRootClausesDropped) {
  Solver solver;
  solver.add_clause(lits({1}));
  solver.add_clause(lits({1, 2}));  // already satisfied: not stored
  EXPECT_EQ(solver.num_originals(), 0u);
}

TEST(SolverBasic, BudgetConflictsReturnsUnknown) {
  Solver solver;
  solver.load(gen_hard_unsat());
  EXPECT_EQ(solver.solve(Budget::conflicts(1)), SolveStatus::unknown);
}

TEST(SolverBasic, BudgetDecisionsReturnsUnknown) {
  Solver solver;
  solver.load(gen_hard_unsat());
  EXPECT_EQ(solver.solve(Budget::decisions(1)), SolveStatus::unknown);
}

TEST(SolverBasic, ZeroBudgetIsUnlimited) {
  Solver solver;
  solver.load(make_cnf({{1, 2}, {-1, 2}}));
  EXPECT_EQ(solver.solve(Budget::unlimited()), SolveStatus::satisfiable);
}

TEST(SolverBasic, StatusToString) {
  EXPECT_STREQ(to_string(SolveStatus::satisfiable), "SATISFIABLE");
  EXPECT_STREQ(to_string(SolveStatus::unsatisfiable), "UNSATISFIABLE");
  EXPECT_STREQ(to_string(SolveStatus::unknown), "UNKNOWN");
}

TEST(SolverBasic, StatsCountsBasics) {
  Solver solver;
  solver.load(gen_hard_unsat());
  solver.solve();
  const SolverStats& stats = solver.stats();
  EXPECT_GT(stats.decisions, 0u);
  EXPECT_GT(stats.conflicts, 0u);
  EXPECT_GT(stats.learned_clauses, 0u);
  EXPECT_GT(stats.propagations, 0u);
}

TEST(SolverOptionsTest, PresetsDiffer) {
  EXPECT_NE(SolverOptions::berkmin().describe(),
            SolverOptions::chaff_like().describe());
  EXPECT_NE(SolverOptions::berkmin().describe(),
            SolverOptions::less_mobility().describe());
  EXPECT_NE(SolverOptions::berkmin().describe(),
            SolverOptions::less_sensitivity().describe());
}

TEST(SolverOptionsTest, DescribeSeparatesExtensionAblations) {
  // The columns of `scorecard --table extensions`: each differs from
  // stock BerkMin in one extension, so their descriptions must differ too.
  const SolverOptions base = SolverOptions::berkmin();
  SolverOptions minimize = base;
  minimize.minimize_learned = true;
  SolverOptions luby = base;
  luby.restart_policy = RestartPolicy::luby;
  SolverOptions window = base;
  window.top_clause_window = 4;
  const std::vector<std::string> columns = {
      base.describe(), minimize.describe(), luby.describe(),
      window.describe()};
  for (std::size_t i = 0; i < columns.size(); ++i) {
    for (std::size_t j = i + 1; j < columns.size(); ++j) {
      EXPECT_NE(columns[i], columns[j]) << columns[i];
    }
  }
  // Luby reads kLubyUnit, never restart_interval (550).
  static_assert(kLubyUnit != 550);
  EXPECT_NE(columns[2].find("restart=luby(" + std::to_string(kLubyUnit) + ")"),
            std::string::npos)
      << columns[2];
  EXPECT_NE(columns[1].find("minimize"), std::string::npos);
  EXPECT_NE(columns[3].find("window=4"), std::string::npos);
  SolverOptions never = base;
  never.restart_policy = RestartPolicy::none;
  EXPECT_EQ(never.describe().find("restart=none("), std::string::npos);
}

TEST(SolverOptionsTest, AblationsChangeOneAxis) {
  const SolverOptions base = SolverOptions::berkmin();
  const SolverOptions ls = SolverOptions::less_sensitivity();
  EXPECT_EQ(ls.decision_policy, base.decision_policy);
  EXPECT_NE(ls.activity_policy, base.activity_policy);
  const SolverOptions lm = SolverOptions::less_mobility();
  EXPECT_NE(lm.decision_policy, base.decision_policy);
  EXPECT_EQ(lm.activity_policy, base.activity_policy);
  const SolverOptions lk = SolverOptions::limited_keeping();
  EXPECT_NE(lk.reduction_policy, base.reduction_policy);
  EXPECT_EQ(lk.decision_policy, base.decision_policy);
}

TEST(SolverOptionsTest, EveryListedPresetResolvesByName) {
  ASSERT_EQ(preset_names().size(), 11u);
  for (const std::string_view name : preset_names()) {
    EXPECT_TRUE(preset_by_name(name).has_value()) << name;
    EXPECT_NE(preset_list().find(name), std::string::npos) << name;
  }
  EXPECT_EQ(preset_by_name("chaff")->describe(),
            SolverOptions::chaff_like().describe());
  EXPECT_EQ(preset_by_name("take_rand")->polarity_policy,
            PolarityPolicy::take_rand);
  EXPECT_FALSE(preset_by_name("nosuch").has_value());
  EXPECT_FALSE(preset_by_name("").has_value());
  EXPECT_FALSE(preset_by_name("Chaff").has_value());
}

}  // namespace
}  // namespace berkmin
