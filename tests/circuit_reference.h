// Scalar reference semantics for the bit-parallel simulator: one gate at a
// time over std::vector<bool>, the explicit-state BFS one (state, input
// vector) pair at a time, and fault injection one probe at a time. The
// kernel-backed library code is checked against these.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "circuit/circuit.h"
#include "circuit/circuit_gen.h"
#include "engines/transition_system.h"
#include "util/rng.h"

namespace berkmin::reference {

inline bool gate_value(GateKind kind, const std::vector<bool>& fanin_values) {
  switch (kind) {
    case GateKind::buf:
      return fanin_values[0];
    case GateKind::not_gate:
      return !fanin_values[0];
    case GateKind::and_gate:
    case GateKind::nand_gate: {
      bool all = true;
      for (const bool v : fanin_values) all = all && v;
      return kind == GateKind::and_gate ? all : !all;
    }
    case GateKind::or_gate:
    case GateKind::nor_gate: {
      bool any = false;
      for (const bool v : fanin_values) any = any || v;
      return kind == GateKind::or_gate ? any : !any;
    }
    case GateKind::xor_gate:
    case GateKind::xnor_gate: {
      bool parity = false;
      for (const bool v : fanin_values) parity = parity != v;
      return kind == GateKind::xor_gate ? parity : !parity;
    }
    default:
      throw std::invalid_argument("gate_value: not a combinational kind");
  }
}

// Every gate's value for one input vector and latch state.
inline std::vector<bool> gate_values(const Circuit& circuit,
                                     const std::vector<bool>& input_values,
                                     const std::vector<bool>& latch_state) {
  std::vector<bool> value(static_cast<std::size_t>(circuit.num_gates()), false);
  std::size_t next_input = 0;
  std::size_t next_latch = 0;
  std::vector<bool> fanin_values;
  for (int i = 0; i < circuit.num_gates(); ++i) {
    const Gate& g = circuit.gate(i);
    switch (g.kind) {
      case GateKind::input:
        value[i] = input_values.at(next_input++);
        break;
      case GateKind::const_zero:
        value[i] = false;
        break;
      case GateKind::const_one:
        value[i] = true;
        break;
      case GateKind::latch:
        value[i] = latch_state.at(next_latch++);
        break;
      default:
        fanin_values.clear();
        for (const int f : g.fanins) fanin_values.push_back(value[f]);
        value[i] = gate_value(g.kind, fanin_values);
        break;
    }
  }
  return value;
}

inline std::vector<bool> outputs_of(const Circuit& circuit,
                                    const std::vector<bool>& values) {
  std::vector<bool> out;
  for (const int o : circuit.outputs()) out.push_back(values[o]);
  return out;
}

// Sequential simulation from the all-zero state.
inline std::vector<std::vector<bool>> simulate(
    const Circuit& circuit, const std::vector<std::vector<bool>>& inputs_per_cycle) {
  std::vector<bool> state(circuit.latches().size(), false);
  std::vector<std::vector<bool>> outputs;
  for (const auto& cycle_inputs : inputs_per_cycle) {
    const std::vector<bool> values = gate_values(circuit, cycle_inputs, state);
    outputs.push_back(outputs_of(circuit, values));
    for (std::size_t s = 0; s < state.size(); ++s) {
      state[s] = values[circuit.gate(circuit.latches()[s]).fanins[0]];
    }
  }
  return outputs;
}

// One transition of `ts`, evaluated on the original sequential circuit:
// returns bad and writes the successor state into *next.
inline bool step(const engines::TransitionSystem& ts, const std::vector<bool>& state,
                 const std::vector<bool>& inputs, std::vector<bool>* next) {
  const Circuit& circuit = ts.circuit();
  const std::vector<bool> values = gate_values(circuit, inputs, state);
  next->assign(state.size(), false);
  for (std::size_t s = 0; s < state.size(); ++s) {
    (*next)[s] = values[circuit.gate(circuit.latches()[s]).fanins[0]];
  }
  return values[circuit.outputs()[static_cast<std::size_t>(ts.bad_output())]];
}

// Explicit-state BFS, one (frontier state, input vector) pair at a time.
inline std::optional<int> reachable_bad_step(const engines::TransitionSystem& ts,
                                             int max_cycles) {
  const int latches = ts.num_latches();
  const std::uint32_t num_vectors = 1u << ts.num_inputs();
  std::vector<bool> state(static_cast<std::size_t>(latches));
  std::vector<bool> inputs(static_cast<std::size_t>(ts.num_inputs()));
  std::vector<bool> next;
  const auto unpack = [](std::uint32_t bits, std::vector<bool>& out) {
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = (bits >> i) & 1u;
  };
  std::vector<char> seen(std::size_t{1} << latches, 0);
  std::vector<std::uint32_t> frontier{0};
  seen[0] = 1;
  for (int cycle = 0; max_cycles < 0 || cycle <= max_cycles; ++cycle) {
    if (frontier.empty()) return std::nullopt;
    std::vector<std::uint32_t> successors;
    for (const std::uint32_t s : frontier) {
      unpack(s, state);
      for (std::uint32_t v = 0; v < num_vectors; ++v) {
        unpack(v, inputs);
        if (step(ts, state, inputs, &next)) return cycle;
        std::uint32_t code = 0;
        for (int b = 0; b < latches; ++b) {
          if (next[static_cast<std::size_t>(b)]) code |= 1u << b;
        }
        if (!seen[code]) {
          seen[code] = 1;
          successors.push_back(code);
        }
      }
    }
    frontier = std::move(successors);
  }
  return std::nullopt;
}

// Fault injection one probe at a time. *first_differing (may be null)
// receives the index of the probe that exposed the returned fault.
inline std::optional<Circuit> inject_fault(const Circuit& circuit, Rng& rng,
                                           int probe_vectors,
                                           int* first_differing = nullptr) {
  if (!circuit.is_combinational()) return std::nullopt;
  std::vector<int> candidates;
  for (int i = 0; i < circuit.num_gates(); ++i) {
    const GateKind kind = circuit.gate(i).kind;
    if (is_combinational_kind(kind) && flipped_kind(kind) != kind) {
      candidates.push_back(i);
    }
  }
  rng.shuffle(candidates);
  for (const int target : candidates) {
    const Circuit faulty =
        with_gate_kind(circuit, target, flipped_kind(circuit.gate(target).kind));
    for (int probe = 0; probe < probe_vectors; ++probe) {
      std::vector<bool> vec(static_cast<std::size_t>(circuit.num_inputs()));
      for (std::size_t b = 0; b < vec.size(); ++b) vec[b] = rng.coin();
      if (outputs_of(circuit, gate_values(circuit, vec, {})) !=
          outputs_of(faulty, gate_values(faulty, vec, {}))) {
        if (first_differing != nullptr) *first_differing = probe;
        return faulty;
      }
    }
  }
  return std::nullopt;
}

}  // namespace berkmin::reference
