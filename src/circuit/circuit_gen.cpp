#include "circuit/circuit_gen.h"

#include <algorithm>
#include <bit>
#include <cstdint>

namespace berkmin {

Circuit random_circuit(const RandomCircuitParams& params, Rng& rng) {
  Circuit circuit;
  std::vector<int> inputs;
  for (int i = 0; i < params.num_inputs; ++i) inputs.push_back(circuit.add_input());

  std::vector<int> latches;
  for (int i = 0; i < params.num_latches; ++i) latches.push_back(circuit.add_latch());

  // Fanins are picked with a bias toward recently created gates so the
  // circuit gains depth; an unbiased pick yields very shallow logic.
  const auto pick_fanin = [&]() {
    const int n = circuit.num_gates();
    if (rng.chance(0.5)) {
      const int window = std::max(4, n / 4);
      return static_cast<int>(rng.range(std::max(0, n - window), n - 1));
    }
    return static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
  };

  for (int i = 0; i < params.num_gates; ++i) {
    GateKind kind;
    const double roll = rng.next_double();
    if (roll < params.xor_fraction) {
      kind = rng.coin() ? GateKind::xor_gate : GateKind::xnor_gate;
    } else if (roll < params.xor_fraction + 0.1) {
      kind = GateKind::not_gate;
    } else {
      constexpr GateKind binary_kinds[] = {GateKind::and_gate, GateKind::or_gate,
                                           GateKind::nand_gate, GateKind::nor_gate};
      kind = binary_kinds[rng.below(4)];
    }

    if (kind == GateKind::not_gate) {
      circuit.add_gate(kind, {pick_fanin()});
    } else {
      int a = pick_fanin();
      int b = pick_fanin();
      if (a == b) b = (b + 1) % circuit.num_gates();
      circuit.add_gate(kind, {a, b});
    }
  }

  // Latch next-state functions and outputs come from the deepest gates.
  for (const int latch : latches) {
    circuit.set_latch_input(latch, pick_fanin());
  }
  const int first_candidate = std::max(0, circuit.num_gates() - 2 * params.num_outputs);
  for (int i = 0; i < params.num_outputs; ++i) {
    const int lo = first_candidate;
    const int hi = circuit.num_gates() - 1;
    circuit.mark_output(static_cast<int>(rng.range(lo, hi)));
  }
  return circuit;
}

GateKind flipped_kind(GateKind kind) {
  switch (kind) {
    case GateKind::and_gate: return GateKind::or_gate;
    case GateKind::or_gate: return GateKind::and_gate;
    case GateKind::nand_gate: return GateKind::nor_gate;
    case GateKind::nor_gate: return GateKind::nand_gate;
    case GateKind::xor_gate: return GateKind::xnor_gate;
    case GateKind::xnor_gate: return GateKind::xor_gate;
    case GateKind::not_gate: return GateKind::buf;
    case GateKind::buf: return GateKind::not_gate;
    default: return kind;
  }
}

Circuit with_gate_kind(const Circuit& circuit, int target, GateKind kind) {
  Circuit out;
  for (int i = 0; i < circuit.num_gates(); ++i) {
    const Gate& g = circuit.gate(i);
    switch (g.kind) {
      case GateKind::input:
        out.add_input();
        break;
      case GateKind::const_zero:
        out.add_const(false);
        break;
      case GateKind::const_one:
        out.add_const(true);
        break;
      default:
        out.add_gate(i == target ? kind : g.kind, g.fanins);
        break;
    }
  }
  for (const int o : circuit.outputs()) out.mark_output(o);
  return out;
}

std::optional<Circuit> inject_fault(const Circuit& circuit, Rng& rng,
                                    int probe_vectors) {
  if (!circuit.is_combinational()) return std::nullopt;

  std::vector<int> candidates;
  for (int i = 0; i < circuit.num_gates(); ++i) {
    const GateKind kind = circuit.gate(i).kind;
    if (is_combinational_kind(kind) && flipped_kind(kind) != kind) {
      candidates.push_back(i);
    }
  }
  rng.shuffle(candidates);

  // Probes run 64 to a pass, on the circuit and on the circuit with the
  // target's kind overridden; the faulty copy is built only for the
  // target returned.
  std::vector<std::uint64_t> inputs(static_cast<std::size_t>(circuit.num_inputs()));
  std::vector<std::uint64_t> good(static_cast<std::size_t>(circuit.num_gates()));
  std::vector<std::uint64_t> faulty(good.size());
  for (const int target : candidates) {
    const GateKind kind = flipped_kind(circuit.gate(target).kind);
    // Verify the fault is observable on some random vector; only then is
    // the miter guaranteed satisfiable.
    for (int first = 0; first < probe_vectors; first += 64) {
      const int lanes = std::min(64, probe_vectors - first);
      const Rng before = rng;
      std::fill(inputs.begin(), inputs.end(), 0);
      for (int lane = 0; lane < lanes; ++lane) {
        for (std::uint64_t& word : inputs) {
          if (rng.coin()) word |= std::uint64_t{1} << lane;
        }
      }
      circuit.evaluate_lanes(inputs, {}, good);
      circuit.evaluate_lanes(inputs, {}, faulty, {target, kind});
      std::uint64_t differs = 0;
      for (const int o : circuit.outputs()) differs |= good[o] ^ faulty[o];
      differs &= lane_mask(lanes);
      if (differs != 0) {
        // Leave rng just past the first differing probe's draws, where a
        // probe-at-a-time loop would have stopped.
        rng = before;
        const int drawn = (std::countr_zero(differs) + 1) * circuit.num_inputs();
        for (int d = 0; d < drawn; ++d) rng.coin();
        return with_gate_kind(circuit, target, kind);
      }
    }
  }
  return std::nullopt;
}

}  // namespace berkmin
