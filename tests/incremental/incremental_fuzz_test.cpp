// Differential incremental fuzzer (ISSUE 5): seeded random
// push/add/pop/solve scripts replayed against one persistent Solver, with
// every intermediate answer checked against (a) a fresh-from-scratch
// Solver over the formula active at that moment and (b) the reference
// DPLL oracle. SAT answers must produce a model of the active formula
// that satisfies the assumptions; UNSAT answers must yield a
// failed-assumption core that re-solves to UNSAT when added as units.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <vector>

#include "cnf/icnf.h"
#include "core/solver.h"
#include "portfolio/portfolio.h"
#include "proof/live_certifier.h"
#include "reference/dpll.h"
#include "service/solver_service.h"
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

// Applies a clause or group op to an engine (or certifier) and to the
// mirror of the formula it sees; both must accept it and name the same
// group.
template <class Target>
void apply_both(Target& target, icnf::ActiveFormula& active,
                const icnf::Op& op) {
  const std::optional<GroupId> applied = icnf::apply(target, op);
  EXPECT_TRUE(applied.has_value()) << icnf::to_string(op.kind);
  EXPECT_EQ(applied, icnf::apply(active, op)) << icnf::to_string(op.kind);
}

// Whether two ops are the same operation.
bool same_op(const icnf::Op& a, const icnf::Op& b) {
  return a.kind == b.kind && a.group == b.group && a.active == b.active &&
         std::ranges::equal(a.lits, b.lits);
}

// Runs one random script end to end.
void run_script(const FuzzParams& params) {
  Rng rng(params.seed * 0x9e3779b97f4a7c15ull + 12345);
  Solver solver(params.options);
  icnf::ActiveFormula active;

  int solves = 0;
  for (int op = 0; op < params.max_ops; ++op) {
    const std::uint64_t pick = rng.below(10);
    if (pick < 4) {
      // Add 1-3 clauses to the current scope.
      const int count = 1 + static_cast<int>(rng.below(3));
      for (int i = 0; i < count; ++i) {
        const auto clause = random_clause(rng, params.num_vars, 3);
        apply_both(solver, active, icnf::Op::clause(clause));
      }
    } else if (pick < 6) {
      apply_both(solver, active, icnf::Op::push());
    } else if (pick < 8 && !active.live().empty()) {
      apply_both(solver, active, icnf::Op::pop());
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
      const Cnf formula = active.formula(params.num_vars);
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

// --- named-group scripts --------------------------------------------------

// Random scripts over the *named* group surface: groups pop in random
// order (not LIFO), clauses land in arbitrary live groups via
// add_clause_to_group, and groups park/revive through set_group_active.
// Each stream is built as an icnf::Script while a Solver follows it through
// apply(). Every answer is checked against a scratch re-solve of the
// formula active at that moment plus the DPLL oracle; SAT answers validate
// the model, UNSAT answers validate the failed-assumption core and certify
// the answer with the script's live resumable checker. The finished script
// is then replayed through its text form into a 2-thread portfolio and a
// certified service session, which must give the same answer at every
// solve.
void run_named_group_script(std::uint64_t seed) {
  Rng rng(seed * 0x2545f4914f6cdd1dull + 99);
  Solver solver;
  proof::LiveCertifier certifier(solver, /*log=*/true, /*check=*/true);
  const int num_vars = 8 + static_cast<int>(seed % 5);

  icnf::Script script;
  icnf::ActiveFormula active;
  const std::vector<icnf::ActiveFormula::Group>& groups = active.live();
  const auto step = [&](const icnf::Op& op) {
    EXPECT_TRUE(script.append(op)) << icnf::to_string(op.kind);
    apply_both(certifier, active, op);
  };

  std::vector<SolveStatus> answers;
  for (int op = 0; op < 30; ++op) {
    const std::uint64_t pick = rng.below(12);
    if (pick < 4) {
      const auto clause = random_clause(rng, num_vars, 3);
      if (groups.empty()) {
        step(icnf::Op::clause(clause));
      } else {
        // Target a *random* live group, not necessarily the innermost.
        step(icnf::Op::clause_to(groups[rng.below(groups.size())].id, clause));
      }
    } else if (pick < 6 && groups.size() < 4) {
      step(icnf::Op::push());
    } else if (pick < 8 && !groups.empty()) {
      const GroupId id = groups[rng.below(groups.size())].id;  // any order
      step(icnf::Op::pop(id));
      EXPECT_FALSE(solver.group_is_live(id));
    } else if (pick < 9 && !groups.empty()) {
      const icnf::ActiveFormula::Group g = groups[rng.below(groups.size())];
      step(icnf::Op::set_active(g.id, !g.active));
    } else {
      std::vector<Lit> assumptions;
      for (std::uint64_t i = rng.below(3); i > 0; --i) {
        assumptions.push_back(
            Lit(static_cast<Var>(
                    rng.below(static_cast<std::uint64_t>(num_vars))),
                rng.coin()));
      }
      ASSERT_TRUE(script.append(icnf::Op::solve(assumptions)));
      const int solves = static_cast<int>(answers.size()) + 1;
      const SolveStatus status = solver.solve_with_assumptions(assumptions);
      answers.push_back(status);
      EXPECT_EQ(solver.validate_invariants(), "")
          << "seed " << seed << " solve " << solves;

      const Cnf formula = active.formula(num_vars);
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
        EXPECT_TRUE(active.is_model(solver.model(), assumptions))
            << "seed " << seed << " solve " << solves;
        EXPECT_FALSE(certifier.certifies(assumptions))
            << "seed " << seed << " solve " << solves
            << ": checker certified a satisfiable assumption set";
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

  // The text form carries every op.
  std::stringstream text;
  icnf::write(text, script);
  const icnf::Script parsed = icnf::parse(text);
  ASSERT_EQ(parsed.size(), script.size()) << "seed " << seed;
  for (std::size_t i = 0; i < script.size(); ++i) {
    EXPECT_TRUE(same_op(parsed.op(i), script.op(i)))
        << "seed " << seed << " op " << i;
  }

  const std::unique_ptr<SatEngine> racing =
      portfolio::make_engine(SolverOptions{}, 2);
  std::vector<SolveStatus> raced;
  for (const icnf::Op op : parsed.ops()) {
    if (op.kind == icnf::Op::Kind::solve) {
      raced.push_back(racing->solve_with_assumptions(op.lits));
    } else {
      ASSERT_TRUE(icnf::apply(*racing, op)) << "seed " << seed;
    }
  }
  EXPECT_EQ(raced, answers) << "seed " << seed << ": portfolio diverged";

  service::SolverService service(service::ServiceOptions{.num_workers = 1});
  service::SessionRequest request;
  request.proof.log = true;
  request.proof.check = true;
  const std::optional<service::SessionId> session =
      service.open_session(request);
  ASSERT_TRUE(session.has_value());
  std::vector<SolveStatus> served;
  service::JobResult result;
  for (const icnf::Op op : parsed.ops()) {
    if (op.kind != icnf::Op::Kind::solve) {
      ASSERT_TRUE(service.session_apply(*session, op)) << "seed " << seed;
      continue;
    }
    ASSERT_TRUE(service.session_query(*session, op.lits, {}, result));
    served.push_back(result.status);
    if (result.status == SolveStatus::unsatisfiable && result.proof_checked) {
      EXPECT_TRUE(result.proof_valid)
          << "seed " << seed << " " << result.name << ": proof rejected";
    }
  }
  EXPECT_EQ(served, answers) << "seed " << seed << ": session diverged";
}

class NamedGroupFuzz : public ::testing::TestWithParam<int> {};

TEST_P(NamedGroupFuzz, ScriptMatchesScratchDpllAndDrat) {
  run_named_group_script(static_cast<std::uint64_t>(GetParam()) + 4000);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NamedGroupFuzz, ::testing::Range(0, 40));

// --- icnf script plumbing --------------------------------------------------

TEST(IcnfScript, RoundTripsThroughParse) {
  const std::vector<Lit> a = {from_dimacs(1), from_dimacs(-2)};
  const std::vector<Lit> b = {from_dimacs(2)};
  const std::vector<Lit> c = {from_dimacs(-1)};
  icnf::Script script;
  for (const icnf::Op& op :
       {icnf::Op::clause(a), icnf::Op::solve(), icnf::Op::push(),
        icnf::Op::clause(b), icnf::Op::push(), icnf::Op::clause_to(0, c),
        icnf::Op::set_active(0, false), icnf::Op::solve(c),
        icnf::Op::set_active(0, true),
        icnf::Op::clause_to(innermost_group, b), icnf::Op::pop(0),
        icnf::Op::pop(), icnf::Op::solve()}) {
    ASSERT_TRUE(script.append(op)) << icnf::to_string(op.kind);
  }

  std::ostringstream out;
  icnf::write(out, script, "round trip");
  // Groups are named by push ordinal (handle + 1), 0 naming the innermost.
  EXPECT_EQ(out.str(),
            "c round trip\np inccnf 2 4\n1 -2 0\na 0\npush 0\n2 0\n"
            "push 0\ng 1 -1 0\ndeactivate 1 0\na -1 0\nactivate 1 0\n"
            "g 0 2 0\npop 1 0\npop 0\na 0\n");
  std::istringstream in(out.str());
  const icnf::Script parsed = icnf::parse(in);
  ASSERT_EQ(parsed.size(), script.size());
  for (std::size_t i = 0; i < script.size(); ++i) {
    EXPECT_TRUE(same_op(parsed.op(i), script.op(i))) << "op " << i;
  }
  EXPECT_EQ(parsed.num_solves(), 3u);
}

TEST(IcnfScript, RejectsUnbalancedPop) {
  // Each malformed script fails at its last line, at the byte just past
  // the offending token.
  struct Case {
    const char* text;
    int line;
    std::uint64_t byte_offset;
    const char* message;
  };
  const Case cases[] = {
      {"p inccnf\npop 0\n", 2, 14, "pop names no open group"},
      {"p inccnf\npush 0\npop 2 0\n", 3, 21, "group 2 was never pushed"},
      {"p inccnf\npush\npop 1 0\npop 1 0\n", 4, 27, "group 1 was popped"},
      {"p inccnf\npush\npop 0\ng 1 2 0\n", 4, 23, "group 1 was popped"},
      {"p inccnf\npush\nactivate 3 0\n", 3, 24,
       "group 3 was never pushed"},
      {"p inccnf\npush\ndeactivate 1 0 7\n", 3, 30,
       "trailing token '7' after 0"},
  };
  for (const Case& c : cases) {
    std::istringstream in(c.text);
    const icnf::ParseResult result = icnf::parse_checked(in);
    ASSERT_EQ(result.issues.size(), 1u) << c.text;
    EXPECT_EQ(result.issues[0].line, c.line) << c.text;
    EXPECT_EQ(result.issues[0].byte_offset, c.byte_offset) << c.text;
    EXPECT_EQ(result.issues[0].message, c.message) << c.text;
    std::istringstream strict(c.text);
    EXPECT_THROW(icnf::parse(strict), std::runtime_error) << c.text;
  }
}

TEST(IcnfScript, AppendTakesOnlyOpenGroups) {
  // A script stays replayable: an op naming a group that is not open is
  // refused and leaves no record.
  icnf::Script script;
  EXPECT_FALSE(script.append(icnf::Op::pop()));
  EXPECT_FALSE(script.append(icnf::Op::set_active(0, false)));
  ASSERT_TRUE(script.append(icnf::Op::push()));
  EXPECT_TRUE(script.append(icnf::Op::set_active(0, false)));
  EXPECT_TRUE(script.append(icnf::Op::pop(0)));
  EXPECT_FALSE(script.append(icnf::Op::pop(0)));
  EXPECT_TRUE(script.append(icnf::Op::solve()));
  EXPECT_EQ(script.size(), 4u);
  EXPECT_EQ(script.groups().num_groups(), 0);
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
    icnf::ActiveFormula active;
    for (const icnf::Op op : script.ops()) {
      if (op.kind != icnf::Op::Kind::solve) {
        apply_both(solver, active, op);
        continue;
      }
      const SolveStatus status = solver.solve_with_assumptions(op.lits);
      Solver scratch;
      scratch.load(active.formula(cnf.num_vars()));
      EXPECT_EQ(status, scratch.solve_with_assumptions(op.lits))
          << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace berkmin
