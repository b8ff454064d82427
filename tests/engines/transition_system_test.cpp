// TransitionSystem: slice construction, step semantics vs plain
// simulation, the frame template's CNF vs step(), and the explicit-state
// BFS ground truth.
#include <gtest/gtest.h>

#include <stdexcept>

#include "circuit/circuit_gen.h"
#include "circuit_reference.h"
#include "core/solver.h"
#include "engines/backend.h"
#include "engines/transition_system.h"
#include "engines_test_util.h"
#include "gen/safety.h"
#include "util/rng.h"

namespace berkmin::engines {
namespace {

TEST(TransitionSystem, SliceAndFrameShapes) {
  const TransitionSystem ts(test_circuits::counter(3));
  EXPECT_EQ(ts.num_latches(), 3);
  EXPECT_EQ(ts.num_inputs(), 0);
  EXPECT_EQ(ts.sliced().num_inputs(), 3);          // state only
  EXPECT_EQ(ts.sliced().num_outputs(), 1 + 3);     // bad + next state
  EXPECT_TRUE(ts.sliced().is_combinational());
  EXPECT_EQ(ts.frame().state.size(), 3u);
  EXPECT_EQ(ts.frame().next.size(), 3u);
  EXPECT_TRUE(ts.frame().inputs.empty());
}

TEST(TransitionSystem, RejectsBadOutputOutOfRange) {
  EXPECT_THROW(TransitionSystem(test_circuits::counter(3), 1),
               std::invalid_argument);
  EXPECT_THROW(TransitionSystem(test_circuits::counter(3), -1),
               std::invalid_argument);
}

TEST(TransitionSystem, StepMatchesSequentialSimulation) {
  const TransitionSystem ts(test_circuits::shift_chain());
  Rng rng(7);
  std::vector<std::vector<bool>> trace;
  std::vector<bool> state(static_cast<std::size_t>(ts.num_latches()), false);
  for (int cycle = 0; cycle < 20; ++cycle) {
    trace.push_back({rng.coin()});
    std::vector<bool> next;
    const bool bad = ts.step(state, trace.back(), &next);
    const auto outputs = ts.circuit().simulate(trace);
    EXPECT_EQ(bad, outputs.back()[0]) << "cycle " << cycle;
    state = next;
  }
}

TEST(TransitionSystem, FrameTemplateAgreesWithStep) {
  const TransitionSystem ts(test_circuits::shift_chain());
  // Every (state, input) combination: fix the frame's state and input
  // literals by units, solve, and compare bad/next against step().
  for (int code = 0; code < (1 << 3); ++code) {
    const std::vector<bool> state{(code & 1) != 0, (code & 2) != 0};
    const std::vector<bool> inputs{(code & 4) != 0};

    Solver solver;
    SolverBackend backend(solver);
    const FrameVars fv = instantiate_frame(backend, ts.frame()).value();
    backend.add_unit(state[0] ? fv.state[0] : ~fv.state[0]);
    backend.add_unit(state[1] ? fv.state[1] : ~fv.state[1]);
    backend.add_unit(inputs[0] ? fv.inputs[0] : ~fv.inputs[0]);
    ASSERT_EQ(backend.solve({}, Budget::unlimited()),
              SolveStatus::satisfiable);

    std::vector<bool> next;
    const bool bad = ts.step(state, inputs, &next);
    EXPECT_EQ(backend.model_value(fv.bad), bad);
    EXPECT_EQ(backend.model_value(fv.next[0]), next[0]);
    EXPECT_EQ(backend.model_value(fv.next[1]), next[1]);
  }
}

TEST(TransitionSystem, ReachableBadStepGroundTruths) {
  EXPECT_EQ(TransitionSystem(test_circuits::counter(3)).reachable_bad_step(), 7);
  EXPECT_EQ(TransitionSystem(test_circuits::counter(4)).reachable_bad_step(), 15);
  EXPECT_EQ(TransitionSystem(test_circuits::shift_chain()).reachable_bad_step(), 2);
  EXPECT_EQ(TransitionSystem(test_circuits::safe_ring()).reachable_bad_step(),
            std::nullopt);
  EXPECT_EQ(TransitionSystem(test_circuits::latch_free(true)).reachable_bad_step(), 0);
  EXPECT_EQ(TransitionSystem(test_circuits::latch_free(false)).reachable_bad_step(),
            std::nullopt);
}

TEST(TransitionSystem, ReachableBadStepHonorsMaxCycles) {
  const TransitionSystem ts(test_circuits::counter(3));
  EXPECT_EQ(ts.reachable_bad_step(6), std::nullopt);
  EXPECT_EQ(ts.reachable_bad_step(7), 7);
}

// The 64-pair BFS against the scalar pair-at-a-time reference over random
// systems: 0-8 inputs (one pass spans 64 states, one state or a part of one),
// 0-13 latches, rare and common bad signals, five cycle limits.
TEST(TransitionSystem, ReachableBadStepMatchesScalarReference) {
  Rng rng(2024);
  int reached = 0;
  int unreached = 0;
  for (int i = 0; i < 120; ++i) {
    RandomCircuitParams params;
    params.num_inputs = i % 9;
    params.num_latches = (3 * i) % 14;
    if (params.num_inputs + params.num_latches == 0) params.num_latches = 2;
    params.num_gates = 10 + 2 * params.num_latches + params.num_inputs;
    params.num_outputs = 1 + i % 4;
    params.xor_fraction = i % 2 == 0 ? 0.2 : 0.05;
    Circuit circuit = random_circuit(params, rng);
    int bad = circuit.outputs()[0];
    for (int o = 1; o < params.num_outputs; ++o) {
      bad = circuit.add_and(bad, circuit.outputs()[static_cast<std::size_t>(o)]);
    }
    circuit.mark_output(bad);
    const TransitionSystem ts(std::move(circuit), params.num_outputs);
    for (const int max_cycles : {-1, 0, 1, 3, 7}) {
      const std::optional<int> want = reference::reachable_bad_step(ts, max_cycles);
      ASSERT_EQ(ts.reachable_bad_step(max_cycles), want)
          << "system " << i << " max_cycles " << max_cycles;
      ++(want ? reached : unreached);
    }
  }
  EXPECT_GT(reached, 0);
  EXPECT_GT(unreached, 0);
}

TEST(TransitionSystem, StepMatchesScalarReference) {
  Rng rng(77);
  for (int i = 0; i < 6; ++i) {
    gen::SafetyParams p;
    p.seed = static_cast<std::uint64_t>(i);
    p.safe = i % 2 == 0;
    p.latch_heavy = i % 3 == 2;
    const TransitionSystem ts = gen::safety_system(p);
    for (int k = 0; k < 50; ++k) {
      std::vector<bool> state, inputs, next, want_next;
      for (int b = 0; b < ts.num_latches(); ++b) state.push_back(rng.coin());
      for (int b = 0; b < ts.num_inputs(); ++b) inputs.push_back(rng.coin());
      const bool bad = ts.step(state, inputs, &next);
      EXPECT_EQ(bad, reference::step(ts, state, inputs, &want_next));
      EXPECT_EQ(next, want_next);
    }
  }
}

TEST(TransitionSystem, StepRejectsArityMismatch) {
  const TransitionSystem ts(test_circuits::shift_chain());
  std::vector<bool> next;
  EXPECT_THROW(ts.step({false}, {true}, &next), std::invalid_argument);
  EXPECT_THROW(ts.step({false, false}, {}, &next), std::invalid_argument);
}

TEST(TransitionSystem, ReachableBadStepRejectsHugeStateSpaces) {
  Circuit big;
  std::vector<int> latches;
  for (int i = 0; i < 23; ++i) latches.push_back(big.add_latch());
  for (const int l : latches) big.set_latch_input(l, l);
  const int in = big.add_input();
  big.mark_output(big.add_and(in, big.add_not(in)));
  const TransitionSystem ts(big);
  EXPECT_THROW(ts.reachable_bad_step(), std::invalid_argument);
}

TEST(TransitionSystem, TraceReplay) {
  const TransitionSystem ts(test_circuits::counter(3));
  const std::vector<std::vector<bool>> eight(8), seven(7);
  EXPECT_TRUE(ts.trace_reaches_bad(eight));   // bad at cycle 7
  EXPECT_FALSE(ts.trace_reaches_bad(seven));  // one cycle short
  EXPECT_FALSE(ts.trace_reaches_bad({}));

  const TransitionSystem chain(test_circuits::shift_chain());
  EXPECT_TRUE(chain.trace_reaches_bad({{true}, {false}, {false}}));
  EXPECT_FALSE(chain.trace_reaches_bad({{false}, {true}, {false}}));
}

TEST(TransitionSystem, SafetyGeneratorMatchesRequestedGroundTruth) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    gen::SafetyParams p;
    p.seed = seed;
    p.safe = true;
    EXPECT_EQ(gen::safety_system(p).reachable_bad_step(), std::nullopt);
    p.safe = false;
    const auto step = gen::safety_system(p).reachable_bad_step();
    ASSERT_TRUE(step.has_value());
    EXPECT_LT(*step, p.cycles);
  }
}

}  // namespace
}  // namespace berkmin::engines
