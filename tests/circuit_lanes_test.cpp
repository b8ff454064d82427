// The 64-lane simulator against the scalar reference (circuit_reference.h):
// every gate kind, partial and multi-pass batches, latch state, the
// one-gate kind override, and fault injection's probes and rng draws.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "circuit/circuit.h"
#include "circuit/circuit_gen.h"
#include "circuit_reference.h"
#include "util/rng.h"

namespace berkmin {
namespace {

struct Assignment {
  std::vector<bool> inputs;
  std::vector<bool> state;
};

std::vector<Assignment> random_assignments(const Circuit& circuit, int count, Rng& rng) {
  std::vector<Assignment> out(static_cast<std::size_t>(count));
  for (Assignment& a : out) {
    for (int i = 0; i < circuit.num_inputs(); ++i) a.inputs.push_back(rng.coin());
    for (std::size_t s = 0; s < circuit.latches().size(); ++s) a.state.push_back(rng.coin());
  }
  return out;
}

// Every gate's value for each assignment, packed 64 to a pass.
std::vector<std::vector<bool>> kernel_values(const Circuit& circuit,
                                             const std::vector<Assignment>& batch,
                                             KindOverride kind_override = {}) {
  std::vector<std::vector<bool>> out;
  std::vector<std::uint64_t> inputs(static_cast<std::size_t>(circuit.num_inputs()));
  std::vector<std::uint64_t> state(circuit.latches().size());
  std::vector<std::uint64_t> values(static_cast<std::size_t>(circuit.num_gates()));
  for (std::size_t first = 0; first < batch.size(); first += 64) {
    const std::size_t lanes = std::min<std::size_t>(64, batch.size() - first);
    std::fill(inputs.begin(), inputs.end(), 0);
    std::fill(state.begin(), state.end(), 0);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      const Assignment& a = batch[first + lane];
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        if (a.inputs[i]) inputs[i] |= std::uint64_t{1} << lane;
      }
      for (std::size_t s = 0; s < state.size(); ++s) {
        if (a.state[s]) state[s] |= std::uint64_t{1} << lane;
      }
    }
    circuit.evaluate_lanes(inputs, state, values, kind_override);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      std::vector<bool>& row = out.emplace_back();
      for (const std::uint64_t word : values) row.push_back(((word >> lane) & 1) != 0);
    }
  }
  return out;
}

void expect_matches_reference(const Circuit& circuit,
                              const std::vector<Assignment>& batch) {
  const std::vector<std::vector<bool>> got = kernel_values(circuit, batch);
  ASSERT_EQ(got.size(), batch.size());
  for (std::size_t k = 0; k < batch.size(); ++k) {
    ASSERT_EQ(got[k], reference::gate_values(circuit, batch[k].inputs, batch[k].state))
        << "assignment " << k << " of " << batch.size();
  }
}

constexpr int kBatchSizes[] = {1, 63, 64, 65, 130};

Circuit every_gate_kind() {
  Circuit c;
  const int a = c.add_input();
  const int b = c.add_input();
  const int d = c.add_input();
  const int e = c.add_input();
  const int k0 = c.add_const(false);
  const int k1 = c.add_const(true);
  for (const GateKind kind :
       {GateKind::and_gate, GateKind::or_gate, GateKind::nand_gate,
        GateKind::nor_gate, GateKind::xor_gate, GateKind::xnor_gate}) {
    c.mark_output(c.add_gate(kind, {a, b}));
    c.mark_output(c.add_gate(kind, {a, b, d}));
    c.mark_output(c.add_gate(kind, {e, d, b, a}));
    c.mark_output(c.add_gate(kind, {k1, a, k0}));
  }
  c.mark_output(c.add_gate(GateKind::buf, {a}));
  c.mark_output(c.add_gate(GateKind::not_gate, {b}));
  c.mark_output(c.add_gate(GateKind::buf, {k0}));
  c.mark_output(c.add_gate(GateKind::not_gate, {k1}));
  c.mark_output(k0);
  c.mark_output(k1);
  return c;
}

TEST(CircuitLanes, EveryGateKindMatchesScalarReference) {
  const Circuit c = every_gate_kind();
  Rng rng(41);
  for (const int lanes : kBatchSizes) {
    expect_matches_reference(c, random_assignments(c, lanes, rng));
  }
  // All 16 input vectors in one pass, and each one alone in lane 0.
  std::vector<Assignment> all;
  for (int bits = 0; bits < 16; ++bits) {
    Assignment a;
    for (int i = 0; i < 4; ++i) a.inputs.push_back(((bits >> i) & 1) != 0);
    all.push_back(a);
    expect_matches_reference(c, {a});
  }
  expect_matches_reference(c, all);
}

TEST(CircuitLanes, SequentialCircuitsMatchScalarReference) {
  Rng rng(42);
  for (int round = 0; round < 8; ++round) {
    RandomCircuitParams params;
    params.num_inputs = 1 + round % 5;
    params.num_latches = 1 + round;
    params.num_gates = 40;
    params.num_outputs = 3;
    const Circuit c = random_circuit(params, rng);
    for (const int lanes : kBatchSizes) {
      expect_matches_reference(c, random_assignments(c, lanes, rng));
    }
    std::vector<std::vector<bool>> trace(12);
    for (auto& cycle : trace) {
      for (int i = 0; i < params.num_inputs; ++i) cycle.push_back(rng.coin());
    }
    EXPECT_EQ(c.simulate(trace), reference::simulate(c, trace)) << "round " << round;
  }
}

TEST(CircuitLanes, KindOverrideMatchesRebuiltCircuit) {
  constexpr GateKind kUnary[] = {GateKind::buf, GateKind::not_gate};
  constexpr GateKind kNary[] = {GateKind::and_gate, GateKind::or_gate,
                                GateKind::nand_gate, GateKind::nor_gate,
                                GateKind::xor_gate, GateKind::xnor_gate};
  Rng rng(43);
  for (int round = 0; round < 3; ++round) {
    RandomCircuitParams params;
    params.num_inputs = 6;
    params.num_gates = 30;
    params.num_outputs = 4;
    Circuit c = random_circuit(params, rng);
    c.mark_output(c.add_gate(GateKind::xor_gate, {0, 1, 2}));
    const std::vector<Assignment> batch = random_assignments(c, 130, rng);
    for (int g = 0; g < c.num_gates(); ++g) {
      const Gate& gate = c.gate(g);
      if (!is_combinational_kind(gate.kind)) continue;
      const bool unary = gate.fanins.size() == 1;
      for (const GateKind kind : unary ? std::vector<GateKind>(std::begin(kUnary), std::end(kUnary))
                                       : std::vector<GateKind>(std::begin(kNary), std::end(kNary))) {
        const Circuit rebuilt = with_gate_kind(c, g, kind);
        ASSERT_EQ(kernel_values(c, batch, {g, kind}), kernel_values(rebuilt, batch))
            << "round " << round << " gate " << g << " as " << to_string(kind);
      }
    }
  }
}

TEST(CircuitLanes, RejectsMismatchedSizesAndBadOverrides) {
  const Circuit c = every_gate_kind();
  std::vector<std::uint64_t> inputs(4), values(static_cast<std::size_t>(c.num_gates()));
  EXPECT_NO_THROW(c.evaluate_lanes(inputs, {}, values));
  std::vector<std::uint64_t> short_inputs(3), extra_state(1), short_values(values.size() - 1);
  EXPECT_THROW(c.evaluate_lanes(short_inputs, {}, values), std::invalid_argument);
  EXPECT_THROW(c.evaluate_lanes(inputs, extra_state, values), std::invalid_argument);
  EXPECT_THROW(c.evaluate_lanes(inputs, {}, short_values), std::invalid_argument);
  // Gate 0 is an input, gate 4 a constant; latch and input are not kinds a
  // gate can be evaluated as.
  EXPECT_THROW(c.evaluate_lanes(inputs, {}, values, {0, GateKind::buf}),
               std::invalid_argument);
  EXPECT_THROW(c.evaluate_lanes(inputs, {}, values, {4, GateKind::not_gate}),
               std::invalid_argument);
  EXPECT_THROW(c.evaluate_lanes(inputs, {}, values, {6, GateKind::latch}),
               std::invalid_argument);
  EXPECT_THROW(c.evaluate_lanes(inputs, {}, values, {c.num_gates(), GateKind::buf}),
               std::invalid_argument);
  EXPECT_THROW(c.evaluate_lanes(inputs, {}, values, {-2, GateKind::buf}),
               std::invalid_argument);
}

TEST(CircuitLanes, LaneMaskCoversExactlyTheFirstLanes) {
  for (int lanes = 0; lanes <= 64; ++lanes) {
    EXPECT_EQ(std::popcount(lane_mask(lanes)), lanes);
    EXPECT_EQ(std::countr_one(lane_mask(lanes)), lanes);
  }
  EXPECT_EQ(lane_mask(64), ~std::uint64_t{0});
}

TEST(CircuitLanes, CountingWordsEnumerateConsecutiveVectors) {
  for (const std::uint64_t base : {0ull, 64ull, 1728ull, 65472ull}) {
    for (int lane = 0; lane < 64; ++lane) {
      for (int bit = 0; bit < 16; ++bit) {
        ASSERT_EQ((counting_word(bit, base) >> lane) & 1, ((base + lane) >> bit) & 1)
            << "base " << base << " lane " << lane << " bit " << bit;
      }
    }
  }
}

bool same_structure(const Circuit& a, const Circuit& b) {
  if (a.num_gates() != b.num_gates() || a.inputs() != b.inputs() ||
      a.latches() != b.latches() || a.outputs() != b.outputs()) {
    return false;
  }
  for (int g = 0; g < a.num_gates(); ++g) {
    if (a.gate(g).kind != b.gate(g).kind || a.gate(g).fanins != b.gate(g).fanins) {
      return false;
    }
  }
  return true;
}

// A fault on the xor is visible only when the 7 other inputs of the wide
// and are all 1: on average the 128th probe.
Circuit rarely_observable() {
  Circuit c;
  std::vector<int> ins;
  for (int i = 0; i < 9; ++i) ins.push_back(c.add_input());
  std::vector<int> conj(ins.begin(), ins.begin() + 7);
  conj.push_back(c.add_xor(ins[7], ins[8]));
  c.mark_output(c.add_gate(GateKind::and_gate, conj));
  return c;
}

TEST(CircuitLanes, InjectFaultMatchesScalarProbeLoop) {
  int late = 0;      // faults first exposed after the first pass
  int not_found = 0;
  for (const int probes : kBatchSizes) {
    for (std::uint64_t seed = 0; seed < 24; ++seed) {
      Rng make(seed);
      RandomCircuitParams params;
      params.num_inputs = 1 + static_cast<int>(seed % 9);
      params.num_gates = 20;
      params.num_outputs = 2;
      const Circuit c = seed % 3 == 0 ? rarely_observable() : random_circuit(params, make);

      Rng kernel_rng(1000 + seed);
      Rng scalar_rng(1000 + seed);
      int first = -1;
      const std::optional<Circuit> got = inject_fault(c, kernel_rng, probes);
      const std::optional<Circuit> want = reference::inject_fault(c, scalar_rng, probes, &first);
      ASSERT_EQ(got.has_value(), want.has_value()) << "probes " << probes << " seed " << seed;
      if (got) {
        EXPECT_TRUE(same_structure(*got, *want)) << "probes " << probes << " seed " << seed;
        if (first >= 64) ++late;
      } else {
        ++not_found;
      }
      for (int draw = 0; draw < 3; ++draw) {
        ASSERT_EQ(kernel_rng.next_u64(), scalar_rng.next_u64())
            << "probes " << probes << " seed " << seed;
      }
    }
  }
  EXPECT_GT(late, 0);
  EXPECT_GT(not_found, 0);
}

TEST(CircuitLanes, InjectFaultNeedsACombinationalCircuit) {
  Circuit c;
  const int latch = c.add_latch();
  c.set_latch_input(latch, c.add_not(latch));
  c.mark_output(c.add_and(latch, c.add_input()));
  Rng rng(5);
  EXPECT_FALSE(inject_fault(c, rng).has_value());
}

}  // namespace
}  // namespace berkmin
