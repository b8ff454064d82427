// Benchmark generators: structural shape and, on small sizes, verified
// SAT/UNSAT status against the solver (and the oracle where feasible).
#include <gtest/gtest.h>

#include <utility>

#include "core/solver.h"
#include "gen/adder_bench.h"
#include "gen/blocksworld.h"
#include "gen/bmc.h"
#include "gen/hanoi.h"
#include "gen/miters.h"
#include "gen/parity.h"
#include "gen/pigeonhole.h"
#include "gen/pipe.h"
#include "gen/random_ksat.h"
#include "gen/registry.h"
#include "reference/brute_force.h"
#include "test_util.h"

namespace berkmin {
namespace {

SolveStatus solve(const Cnf& cnf) {
  Solver solver;
  solver.load(cnf);
  return solver.solve();
}

// --- pigeonhole ----------------------------------------------------------

TEST(Pigeonhole, ShapeMatchesFormula) {
  const Cnf cnf = gen::pigeonhole(4);
  EXPECT_EQ(cnf.num_vars(), 5 * 4);
  // 5 pigeon clauses + 4 * C(5,2) hole clauses.
  EXPECT_EQ(cnf.num_clauses(), 5u + 4u * 10u);
}

TEST(Pigeonhole, SmallInstancesUnsat) {
  for (int holes = 1; holes <= 6; ++holes) {
    EXPECT_EQ(solve(gen::pigeonhole(holes)), SolveStatus::unsatisfiable)
        << "holes " << holes;
  }
}

TEST(Pigeonhole, OracleAgreesOnTiny) {
  EXPECT_FALSE(reference::brute_force_satisfiable(gen::pigeonhole(3)));
}

TEST(Pigeonhole, RejectsBadParams) {
  EXPECT_THROW(gen::pigeonhole(0), std::invalid_argument);
}

// --- random ksat ---------------------------------------------------------

TEST(RandomKsat, ShapeAndDeterminism) {
  const Cnf a = gen::random_ksat(20, 50, 3, 7);
  const Cnf b = gen::random_ksat(20, 50, 3, 7);
  EXPECT_EQ(a.num_clauses(), 50u);
  ASSERT_EQ(b.num_clauses(), 50u);
  for (std::size_t i = 0; i < a.num_clauses(); ++i) {
    EXPECT_EQ(a.clause(i), b.clause(i));
  }
  for (const auto& clause : a.clauses()) {
    EXPECT_EQ(clause.size(), 3u);
    // Distinct variables within a clause.
    EXPECT_NE(clause[0].var(), clause[1].var());
    EXPECT_NE(clause[1].var(), clause[2].var());
    EXPECT_NE(clause[0].var(), clause[2].var());
  }
}

TEST(RandomKsat, DifferentSeedsDiffer) {
  const Cnf a = gen::random_ksat(20, 50, 3, 1);
  const Cnf b = gen::random_ksat(20, 50, 3, 2);
  bool any_difference = false;
  for (std::size_t i = 0; i < a.num_clauses() && !any_difference; ++i) {
    any_difference = a.clause(i) != b.clause(i);
  }
  EXPECT_TRUE(any_difference);
}

TEST(RandomKsat, RejectsBadParams) {
  EXPECT_THROW(gen::random_ksat(3, 5, 4, 0), std::invalid_argument);
  EXPECT_THROW(gen::random_ksat(3, 5, 0, 0), std::invalid_argument);
}

// --- parity ---------------------------------------------------------------

class ParityStatus : public ::testing::TestWithParam<int> {};

TEST_P(ParityStatus, SatAndUnsatVariantsVerified) {
  gen::ParityParams params;
  params.num_vars = 12;
  params.num_equations = 16;
  params.equation_size = 4;
  params.seed = static_cast<std::uint64_t>(GetParam());

  params.satisfiable = true;
  EXPECT_EQ(solve(gen::parity_instance(params)), SolveStatus::satisfiable);

  params.satisfiable = false;
  EXPECT_EQ(solve(gen::parity_instance(params)), SolveStatus::unsatisfiable);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParityStatus, ::testing::Range(0, 8));

TEST(Parity, RejectsBadParams) {
  gen::ParityParams params;
  params.num_vars = 4;
  params.equation_size = 9;
  EXPECT_THROW(gen::parity_instance(params), std::invalid_argument);
}

// --- hanoi -----------------------------------------------------------------

TEST(Hanoi, OptimalMoves) {
  EXPECT_EQ(gen::HanoiEncoding::optimal_moves(1), 1);
  EXPECT_EQ(gen::HanoiEncoding::optimal_moves(3), 7);
  EXPECT_EQ(gen::HanoiEncoding::optimal_moves(5), 31);
  EXPECT_EQ(gen::HanoiEncoding::optimal_moves(gen::HanoiEncoding::kMaxDisks),
            (1 << 30) - 1);
  // 2^31 - 1 would need a shift past int's sign bit.
  EXPECT_THROW(gen::HanoiEncoding::optimal_moves(31), std::invalid_argument);
  EXPECT_THROW(gen::HanoiEncoding::optimal_moves(-1), std::invalid_argument);
}

TEST(Hanoi, SatAtOptimalHorizon) {
  for (int disks = 1; disks <= 3; ++disks) {
    const int optimum = gen::HanoiEncoding::optimal_moves(disks);
    EXPECT_EQ(solve(gen::hanoi_instance(disks, optimum)),
              SolveStatus::satisfiable)
        << disks << " disks";
  }
}

TEST(Hanoi, UnsatBelowOptimalHorizon) {
  for (int disks = 2; disks <= 3; ++disks) {
    const int optimum = gen::HanoiEncoding::optimal_moves(disks);
    EXPECT_EQ(solve(gen::hanoi_instance(disks, optimum - 1)),
              SolveStatus::unsatisfiable)
        << disks << " disks";
  }
}

TEST(Hanoi, SatWithSlackHorizon) {
  // One extra move can always be burned with a detour.
  EXPECT_EQ(solve(gen::hanoi_instance(2, 4)), SolveStatus::satisfiable);
  EXPECT_EQ(solve(gen::hanoi_instance(2, 5)), SolveStatus::satisfiable);
}

TEST(Hanoi, DecodedPlanIsLegal) {
  const gen::HanoiEncoding encoding(3, 7);
  Solver solver;
  solver.load(encoding.cnf());
  ASSERT_EQ(solver.solve(), SolveStatus::satisfiable);
  const auto plan = encoding.decode(solver.model());
  ASSERT_EQ(plan.size(), 7u);  // decode returns empty on any illegality
  EXPECT_EQ(plan[0].disk, 0);  // the first move must move the smallest disk
}

TEST(Hanoi, RejectsBadParams) {
  EXPECT_THROW(gen::hanoi_instance(0, 3), std::invalid_argument);
  EXPECT_THROW(gen::hanoi_instance(2, -1), std::invalid_argument);
}

// --- blocksworld -------------------------------------------------------------

class BlocksworldStatus : public ::testing::TestWithParam<int> {};

TEST_P(BlocksworldStatus, SatInstancesVerified) {
  gen::BlocksworldParams params;
  params.num_blocks = 4;
  params.horizon = 6;
  params.satisfiable = true;
  params.seed = static_cast<std::uint64_t>(GetParam());
  const Cnf cnf = gen::blocksworld_instance(params);
  Solver solver;
  solver.load(cnf);
  ASSERT_EQ(solver.solve(), SolveStatus::satisfiable);
  EXPECT_TRUE(cnf.is_satisfied_by(solver.model()));
}

TEST_P(BlocksworldStatus, UnsatInstancesVerified) {
  gen::BlocksworldParams params;
  params.num_blocks = 4;
  params.horizon = 1;
  params.satisfiable = false;
  params.seed = static_cast<std::uint64_t>(GetParam());
  EXPECT_EQ(solve(gen::blocksworld_instance(params)),
            SolveStatus::unsatisfiable);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlocksworldStatus, ::testing::Range(0, 6));

TEST(Blocksworld, RejectsBadParams) {
  gen::BlocksworldParams params;
  params.num_blocks = 1;
  EXPECT_THROW(gen::blocksworld_instance(params), std::invalid_argument);
}

// --- miters -----------------------------------------------------------------

class MiterStatus : public ::testing::TestWithParam<int> {};

TEST_P(MiterStatus, EquivalentIsUnsat) {
  gen::MiterParams params;
  params.num_inputs = 6;
  params.num_gates = 50;
  params.num_outputs = 3;
  params.equivalent = true;
  params.seed = static_cast<std::uint64_t>(GetParam());
  EXPECT_EQ(solve(gen::miter_instance(params)), SolveStatus::unsatisfiable);
}

TEST_P(MiterStatus, FaultyIsSat) {
  gen::MiterParams params;
  params.num_inputs = 6;
  params.num_gates = 50;
  params.num_outputs = 3;
  params.equivalent = false;
  params.seed = static_cast<std::uint64_t>(GetParam());
  EXPECT_EQ(solve(gen::miter_instance(params)), SolveStatus::satisfiable);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MiterStatus, ::testing::Range(0, 6));

// --- adders -----------------------------------------------------------------

TEST(AdderBench, EquivalencePairsUnsat) {
  for (const auto pair :
       {gen::AdderPair::ripple_vs_select, gen::AdderPair::ripple_vs_lookahead,
        gen::AdderPair::select_vs_lookahead}) {
    EXPECT_EQ(solve(gen::adder_equivalence(4, pair)),
              SolveStatus::unsatisfiable);
  }
}

TEST(AdderBench, MutationsSat) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    EXPECT_EQ(
        solve(gen::adder_mutation(4, gen::AdderPair::ripple_vs_select, seed)),
        SolveStatus::satisfiable);
  }
}

TEST(AdderBench, TargetSumSatWithValidWitness) {
  const Cnf cnf = gen::adder_target_sum(6, 3);
  Solver solver;
  solver.load(cnf);
  ASSERT_EQ(solver.solve(), SolveStatus::satisfiable);
  EXPECT_TRUE(cnf.is_satisfied_by(solver.model()));
}

// --- bmc / pipe ---------------------------------------------------------------

TEST(Bmc, EquivalentUnrollingUnsat) {
  gen::BmcParams params;
  params.num_inputs = 4;
  params.num_gates = 30;
  params.num_latches = 4;
  params.cycles = 3;
  params.equivalent = true;
  params.seed = 5;
  EXPECT_EQ(solve(gen::bmc_instance(params)), SolveStatus::unsatisfiable);
}

TEST(Bmc, FaultyUnrollingSat) {
  gen::BmcParams params;
  params.num_inputs = 4;
  params.num_gates = 30;
  params.num_latches = 4;
  params.cycles = 3;
  params.equivalent = false;
  params.seed = 5;
  EXPECT_EQ(solve(gen::bmc_instance(params)), SolveStatus::satisfiable);
}

TEST(Pipe, CorrectPipelineUnsat) {
  gen::PipeParams params;
  params.width = 3;
  params.stages = 2;
  params.correct = true;
  EXPECT_EQ(solve(gen::pipe_instance(params)), SolveStatus::unsatisfiable);
}

TEST(Pipe, DeeperPipelineStillUnsat) {
  gen::PipeParams params;
  params.width = 2;
  params.stages = 4;
  params.correct = true;
  EXPECT_EQ(solve(gen::pipe_instance(params)), SolveStatus::unsatisfiable);
}

TEST(Pipe, BuggyPipelineSat) {
  gen::PipeParams params;
  params.width = 3;
  params.stages = 2;
  params.correct = false;
  params.seed = 9;
  EXPECT_EQ(solve(gen::pipe_instance(params)), SolveStatus::satisfiable);
}

TEST(Pipe, RejectsBadParams) {
  gen::PipeParams params;
  params.width = 0;
  EXPECT_THROW(gen::pipe_instance(params), std::invalid_argument);
}

// --- registry -----------------------------------------------------------------

TEST(Registry, GeneratesKnownFamilies) {
  std::string error;
  for (const char* spec :
       {"hole:4", "rand3:20:60:1", "par:10:14:3:unsat:2", "hanoi:2:3",
        "blocks:4:6:sat:1", "adder:3:1", "adder_sum:4:2"}) {
    const auto instance = gen::generate_from_spec(spec, &error);
    ASSERT_TRUE(instance.has_value()) << error;
    EXPECT_GT(instance->cnf.num_clauses(), 0u) << spec;
  }
}

TEST(Registry, ExpectationsAreAccurate) {
  std::string error;
  const auto hole = gen::generate_from_spec("hole:4", &error);
  ASSERT_TRUE(hole.has_value());
  EXPECT_EQ(hole->expected, gen::Expectation::unsat);
  EXPECT_EQ(solve(hole->cnf), SolveStatus::unsatisfiable);

  const auto sum = gen::generate_from_spec("adder_sum:4:1", &error);
  ASSERT_TRUE(sum.has_value());
  EXPECT_EQ(sum->expected, gen::Expectation::sat);
  EXPECT_EQ(solve(sum->cnf), SolveStatus::satisfiable);
}

TEST(Registry, RejectsUnknownFamily) {
  std::string error;
  EXPECT_FALSE(gen::generate_from_spec("nonsense:1", &error).has_value());
  EXPECT_NE(error.find("unknown family"), std::string::npos);
}

TEST(Registry, RejectsBadSatFlag) {
  std::string error;
  EXPECT_FALSE(gen::generate_from_spec("par:10:14:3:maybe:2", &error).has_value());
  EXPECT_NE(error.find("field 4 <sat|unsat>"), std::string::npos) << error;
}

TEST(Registry, RejectsBadFieldsNamingThem) {
  // Each of these used to generate something else: a default, a
  // truncated value, or the spec without its trailing field.
  const std::pair<const char*, const char*> cases[] = {
      {"hole:abc", "field 1 <holes> ('abc') is not a whole number"},
      {"hole:", "field 1 <holes> ('') is not a whole number"},
      {"hole:+5", "field 1 <holes> ('+5') is not a whole number"},
      {"hole:6x", "field 1 <holes> ('6x') is not a whole number"},
      {"hole:4294967299", "field 1 <holes> ('4294967299') is out of range"},
      {"hole:-4294967299", "field 1 <holes> ('-4294967299') is out of range"},
      {"rand3:50:213:1:junk", "field 4 ('junk') is past the family's last"},
      {"hole:6:7", "field 2 ('7') is past the family's last"},
      {"rand3:50:213:-1", "field 3 <seed> ('-1') is out of range"},
      {"rand3:50:213:18446744073709551616", "field 3 <seed>"},
      {"rand3:50:2.5:1", "field 2 <clauses> ('2.5') is not a whole number"},
      {"hanoi:31", "field 1 <disks> ('31') is out of range [1, 30]"},
      {"hanoi:0", "field 1 <disks> ('0') is out of range [1, 30]"},
      {"adder:6:-1", "field 2 <pair> ('-1') is out of range"},
      {"miter:10:120:unsat:3:25:9", "field 6 ('9') is past"},
      {"pipe:4:2:unsat:0:0:1:1:0", "field 8 ('0') is past"},
  };
  for (const auto& [spec, expected] : cases) {
    std::string error;
    EXPECT_FALSE(gen::generate_from_spec(spec, &error).has_value()) << spec;
    EXPECT_NE(error.find(expected), std::string::npos)
        << spec << ": " << error;
  }
}

TEST(Registry, SpecsGenerateWhatTheirGeneratorsDo) {
  const auto same = [](const char* spec, const Cnf& expected) {
    std::string error;
    const auto instance = gen::generate_from_spec(spec, &error);
    ASSERT_TRUE(instance.has_value()) << error;
    ASSERT_EQ(instance->cnf.num_vars(), expected.num_vars()) << spec;
    ASSERT_EQ(instance->cnf.num_clauses(), expected.num_clauses()) << spec;
    for (std::size_t i = 0; i < expected.num_clauses(); ++i) {
      ASSERT_TRUE(instance->cnf.clause(i) == expected.clause(i))
          << spec << " clause " << i;
    }
  };
  same("hole", gen::pigeonhole(6));
  same("hole:3", gen::pigeonhole(3));
  same("rand3:20:60:1", gen::random_ksat(20, 60, 3, 1));
  same("rand3:20:60:18446744073709551615",
       gen::random_ksat(20, 60, 3, 18446744073709551615ull));
  same("hanoi:3", gen::hanoi_instance(3, 7));
  same("hanoi:2:5", gen::hanoi_instance(2, 5));
  same("adder:3:4", gen::adder_equivalence(3, gen::AdderPair::ripple_vs_lookahead));
  gen::ParityParams parity;
  parity.num_vars = 10;
  parity.num_equations = 14;
  parity.equation_size = 3;
  parity.satisfiable = false;
  parity.seed = 2;
  same("par:10:14:3:unsat:2", gen::parity_instance(parity));
}

TEST(Registry, HelpListsFamilies) {
  const std::string help = gen::registry_help();
  for (const char* family : {"hole", "hanoi", "blocks", "miter", "pipe"}) {
    EXPECT_NE(help.find(family), std::string::npos) << family;
  }
}

}  // namespace
}  // namespace berkmin
