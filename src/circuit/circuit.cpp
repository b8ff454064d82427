#include "circuit/circuit.h"

#include <stdexcept>

namespace berkmin {

const char* to_string(GateKind kind) {
  switch (kind) {
    case GateKind::input: return "input";
    case GateKind::const_zero: return "const0";
    case GateKind::const_one: return "const1";
    case GateKind::buf: return "buf";
    case GateKind::not_gate: return "not";
    case GateKind::and_gate: return "and";
    case GateKind::or_gate: return "or";
    case GateKind::nand_gate: return "nand";
    case GateKind::nor_gate: return "nor";
    case GateKind::xor_gate: return "xor";
    case GateKind::xnor_gate: return "xnor";
    case GateKind::latch: return "latch";
  }
  return "?";
}

bool is_combinational_kind(GateKind kind) {
  switch (kind) {
    case GateKind::buf:
    case GateKind::not_gate:
    case GateKind::and_gate:
    case GateKind::or_gate:
    case GateKind::nand_gate:
    case GateKind::nor_gate:
    case GateKind::xor_gate:
    case GateKind::xnor_gate:
      return true;
    default:
      return false;
  }
}

int Circuit::add_input() {
  gates_.push_back(Gate{GateKind::input, {}});
  inputs_.push_back(num_gates() - 1);
  return num_gates() - 1;
}

int Circuit::add_const(bool value) {
  gates_.push_back(Gate{value ? GateKind::const_one : GateKind::const_zero, {}});
  return num_gates() - 1;
}

int Circuit::add_gate(GateKind kind, std::vector<int> fanins) {
  if (!is_combinational_kind(kind)) {
    throw std::invalid_argument("add_gate requires a combinational kind");
  }
  const bool unary = kind == GateKind::buf || kind == GateKind::not_gate;
  if (unary ? fanins.size() != 1 : fanins.size() < 2) {
    throw std::invalid_argument(std::string("bad arity for ") + to_string(kind));
  }
  for (const int f : fanins) {
    if (f < 0 || f >= num_gates()) {
      throw std::invalid_argument("fanin must be an existing earlier gate");
    }
  }
  gates_.push_back(Gate{kind, std::move(fanins)});
  return num_gates() - 1;
}

int Circuit::add_latch() {
  gates_.push_back(Gate{GateKind::latch, {}});
  latches_.push_back(num_gates() - 1);
  return num_gates() - 1;
}

void Circuit::set_latch_input(int latch, int fanin) {
  if (latch < 0 || latch >= num_gates() || gates_[latch].kind != GateKind::latch) {
    throw std::invalid_argument("set_latch_input: not a latch");
  }
  if (fanin < 0 || fanin >= num_gates()) {
    throw std::invalid_argument("set_latch_input: bad fanin");
  }
  gates_[latch].fanins = {fanin};
}

void Circuit::mark_output(int gate) {
  if (gate < 0 || gate >= num_gates()) {
    throw std::invalid_argument("mark_output: no such gate");
  }
  outputs_.push_back(gate);
}

std::string Circuit::validate() const {
  for (int i = 0; i < num_gates(); ++i) {
    const Gate& g = gates_[i];
    if (is_combinational_kind(g.kind)) {
      for (const int f : g.fanins) {
        if (f >= i) return "gate " + std::to_string(i) + " has a forward fanin";
      }
    } else if (g.kind == GateKind::latch) {
      if (g.fanins.size() != 1) {
        return "latch " + std::to_string(i) + " has no next-state input";
      }
    }
  }
  return "";
}

namespace {

// One combinational gate over all 64 lanes.
std::uint64_t gate_word(GateKind kind, const std::vector<int>& fanins,
                        std::span<const std::uint64_t> values) {
  std::uint64_t acc = values[fanins[0]];
  switch (kind) {
    case GateKind::buf:
      return acc;
    case GateKind::not_gate:
      return ~acc;
    case GateKind::and_gate:
    case GateKind::nand_gate:
      for (std::size_t k = 1; k < fanins.size(); ++k) acc &= values[fanins[k]];
      return kind == GateKind::and_gate ? acc : ~acc;
    case GateKind::or_gate:
    case GateKind::nor_gate:
      for (std::size_t k = 1; k < fanins.size(); ++k) acc |= values[fanins[k]];
      return kind == GateKind::or_gate ? acc : ~acc;
    case GateKind::xor_gate:
    case GateKind::xnor_gate:
      for (std::size_t k = 1; k < fanins.size(); ++k) acc ^= values[fanins[k]];
      return kind == GateKind::xor_gate ? acc : ~acc;
    default:
      throw std::logic_error("gate_word: not a combinational kind");
  }
}

// One-lane packing: bit i goes to lane 0 of word i, and back.
std::vector<std::uint64_t> one_lane_words(const std::vector<bool>& bits) {
  return std::vector<std::uint64_t>(bits.begin(), bits.end());
}

std::vector<bool> lane_zero(const std::vector<int>& gates,
                            const std::vector<std::uint64_t>& values) {
  std::vector<bool> out;
  out.reserve(gates.size());
  for (const int g : gates) out.push_back((values[g] & 1) != 0);
  return out;
}

}  // namespace

void Circuit::evaluate_lanes(std::span<const std::uint64_t> input_words,
                             std::span<const std::uint64_t> latch_words,
                             std::span<std::uint64_t> values,
                             KindOverride kind_override) const {
  if (input_words.size() != inputs_.size() ||
      latch_words.size() != latches_.size() || values.size() != gates_.size()) {
    throw std::invalid_argument("Circuit::evaluate_lanes: size mismatch");
  }
  if (kind_override.gate != -1 &&
      (kind_override.gate < 0 || kind_override.gate >= num_gates() ||
       !is_combinational_kind(gates_[kind_override.gate].kind) ||
       !is_combinational_kind(kind_override.kind))) {
    throw std::invalid_argument(
        "Circuit::evaluate_lanes: the override must name a combinational "
        "gate and kind");
  }
  for (std::size_t k = 0; k < inputs_.size(); ++k) values[inputs_[k]] = input_words[k];
  for (std::size_t k = 0; k < latches_.size(); ++k) values[latches_[k]] = latch_words[k];
  for (int i = 0; i < num_gates(); ++i) {
    const Gate& g = gates_[i];
    switch (g.kind) {
      case GateKind::input:
      case GateKind::latch:
        break;
      case GateKind::const_zero:
        values[i] = 0;
        break;
      case GateKind::const_one:
        values[i] = ~std::uint64_t{0};
        break;
      default:
        values[i] = gate_word(i == kind_override.gate ? kind_override.kind : g.kind,
                              g.fanins, values);
        break;
    }
  }
}

std::vector<bool> Circuit::evaluate(const std::vector<bool>& input_values) const {
  if (!is_combinational()) {
    throw std::invalid_argument(
        "Circuit::evaluate: the circuit has latches (use simulate)");
  }
  std::vector<std::uint64_t> values(gates_.size());
  evaluate_lanes(one_lane_words(input_values), {}, values);
  return lane_zero(outputs_, values);
}

std::vector<std::vector<bool>> Circuit::simulate(
    const std::vector<std::vector<bool>>& inputs_per_cycle) const {
  const std::string problem = validate();
  if (!problem.empty()) throw std::invalid_argument("Circuit::simulate: " + problem);
  std::vector<std::uint64_t> state(latches_.size(), 0);
  std::vector<std::uint64_t> values(gates_.size());
  std::vector<std::vector<bool>> outputs;
  outputs.reserve(inputs_per_cycle.size());
  for (const auto& cycle_inputs : inputs_per_cycle) {
    evaluate_lanes(one_lane_words(cycle_inputs), state, values);
    outputs.push_back(lane_zero(outputs_, values));
    for (std::size_t s = 0; s < latches_.size(); ++s) {
      state[s] = values[gates_[latches_[s]].fanins[0]];
    }
  }
  return outputs;
}

}  // namespace berkmin
