#include "engines/transition_system.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "circuit/tseitin.h"

namespace berkmin::engines {
namespace {

// reachable_bad_step's explicit-search limits.
constexpr int kMaxBfsLatches = 22;
constexpr int kMaxBfsInputs = 16;

}  // namespace

TransitionSystem::TransitionSystem(Circuit circuit, int bad_output)
    : circuit_(std::move(circuit)), bad_output_(bad_output) {
  const std::string problem = circuit_.validate();
  if (!problem.empty()) {
    throw std::invalid_argument("TransitionSystem: " + problem);
  }
  if (bad_output_ < 0 || bad_output_ >= circuit_.num_outputs()) {
    throw std::invalid_argument("TransitionSystem: bad_output " +
                                std::to_string(bad_output_) +
                                " out of range (circuit has " +
                                std::to_string(circuit_.num_outputs()) +
                                " outputs)");
  }

  // Build the combinational slice: walk the gates in topological order,
  // turning primary inputs and latches into slice inputs and copying the
  // combinational logic verbatim.
  std::vector<int> map(static_cast<std::size_t>(circuit_.num_gates()), -1);
  std::vector<int> input_gate(circuit_.inputs().size(), -1);
  std::vector<int> state_gate(circuit_.latches().size(), -1);
  int next_input = 0;
  int next_latch = 0;
  for (int i = 0; i < circuit_.num_gates(); ++i) {
    const Gate& g = circuit_.gate(i);
    switch (g.kind) {
      case GateKind::input:
        map[i] = sliced_.add_input();
        input_gate[next_input++] = map[i];
        break;
      case GateKind::latch:
        map[i] = sliced_.add_input();
        state_gate[next_latch++] = map[i];
        break;
      case GateKind::const_zero:
        map[i] = sliced_.add_const(false);
        break;
      case GateKind::const_one:
        map[i] = sliced_.add_const(true);
        break;
      default: {
        std::vector<int> fanins;
        fanins.reserve(g.fanins.size());
        for (const int f : g.fanins) fanins.push_back(map[f]);
        map[i] = sliced_.add_gate(g.kind, std::move(fanins));
        break;
      }
    }
  }
  // Outputs: bad first, then the next-state function of every latch.
  sliced_.mark_output(map[circuit_.outputs()[bad_output_]]);
  for (const int latch : circuit_.latches()) {
    sliced_.mark_output(map[circuit_.gate(latch).fanins[0]]);
  }

  // Where each primary/state input landed in the slice's input order.
  input_pos_.assign(input_gate.size(), -1);
  state_pos_.assign(state_gate.size(), -1);
  for (int pos = 0; pos < sliced_.num_inputs(); ++pos) {
    const int gate = sliced_.inputs()[pos];
    for (std::size_t i = 0; i < input_gate.size(); ++i) {
      if (input_gate[i] == gate) input_pos_[i] = pos;
    }
    for (std::size_t s = 0; s < state_gate.size(); ++s) {
      if (state_gate[s] == gate) state_pos_[s] = pos;
    }
  }

  // The frame template: Tseitin literals of the slice, keyed by role.
  const std::vector<Lit> lit_of = encode_tseitin(sliced_, frame_.cnf);
  frame_.inputs.reserve(input_gate.size());
  for (const int gate : input_gate) frame_.inputs.push_back(lit_of[gate]);
  frame_.state.reserve(state_gate.size());
  for (const int gate : state_gate) frame_.state.push_back(lit_of[gate]);
  frame_.bad = lit_of[sliced_.outputs()[0]];
  frame_.next.reserve(state_gate.size());
  for (std::size_t s = 0; s < state_gate.size(); ++s) {
    frame_.next.push_back(lit_of[sliced_.outputs()[1 + s]]);
  }
}

bool TransitionSystem::step(const std::vector<bool>& state,
                            const std::vector<bool>& inputs,
                            std::vector<bool>* next) const {
  if (static_cast<int>(inputs.size()) != num_inputs() ||
      static_cast<int>(state.size()) != num_latches()) {
    throw std::invalid_argument("TransitionSystem::step: arity mismatch");
  }
  std::vector<std::uint64_t> words(static_cast<std::size_t>(sliced_.num_inputs()));
  for (std::size_t i = 0; i < inputs.size(); ++i) words[input_pos_[i]] = inputs[i];
  for (std::size_t s = 0; s < state.size(); ++s) words[state_pos_[s]] = state[s];
  std::vector<std::uint64_t> values(static_cast<std::size_t>(sliced_.num_gates()));
  sliced_.evaluate_lanes(words, {}, values);
  const std::vector<int>& outputs = sliced_.outputs();
  if (next != nullptr) {
    next->resize(state.size());
    for (std::size_t s = 0; s < state.size(); ++s) {
      (*next)[s] = (values[outputs[1 + s]] & 1) != 0;
    }
  }
  return (values[outputs[0]] & 1) != 0;
}

std::optional<int> TransitionSystem::reachable_bad_step(int max_cycles) const {
  if (num_latches() > kMaxBfsLatches || num_inputs() > kMaxBfsInputs) {
    throw std::invalid_argument(
        "reachable_bad_step: state space too large for explicit search");
  }
  const int latches = num_latches();
  const int input_bits = num_inputs();
  const std::uint32_t num_states = 1u << latches;

  // Pair p = (frontier position << input_bits) | input vector, the order
  // of a state-by-state, vector-by-vector walk. A pass evaluates the 64
  // pairs [base, base + 64): the input vectors count up lane by lane, and
  // each frontier state fills a block of 2^min(input_bits, 6) lanes.
  const int block_bits = std::min(input_bits, 6);
  const int states_per_pass = 64 >> block_bits;
  const std::uint64_t block_mask = lane_mask(1 << block_bits);
  const std::vector<int>& outputs = sliced_.outputs();
  std::vector<std::uint64_t> words(static_cast<std::size_t>(sliced_.num_inputs()));
  std::vector<std::uint64_t> values(static_cast<std::size_t>(sliced_.num_gates()));

  std::vector<char> seen(num_states, 0);
  std::vector<std::uint32_t> frontier{0};
  std::vector<std::uint32_t> successors;
  seen[0] = 1;
  for (int cycle = 0; max_cycles < 0 || cycle <= max_cycles; ++cycle) {
    if (frontier.empty()) return std::nullopt;  // fixpoint: bad unreachable
    successors.clear();
    const std::uint64_t pairs = std::uint64_t{frontier.size()} << input_bits;
    for (std::uint64_t base = 0; base < pairs; base += 64) {
      const int lanes = static_cast<int>(std::min<std::uint64_t>(64, pairs - base));
      for (int i = 0; i < input_bits; ++i) words[input_pos_[i]] = counting_word(i, base);
      for (int b = 0; b < latches; ++b) words[state_pos_[b]] = 0;
      const std::size_t first = base >> input_bits;
      for (int k = 0; k < states_per_pass && first + k < frontier.size(); ++k) {
        const std::uint32_t s = frontier[first + k];
        const std::uint64_t block = block_mask << (k << block_bits);
        for (int b = 0; b < latches; ++b) {
          if ((s >> b) & 1u) words[state_pos_[b]] |= block;
        }
      }
      sliced_.evaluate_lanes(words, {}, values);
      if ((values[outputs[0]] & lane_mask(lanes)) != 0) return cycle;
      std::uint64_t next[kMaxBfsLatches];
      for (int b = 0; b < latches; ++b) next[b] = values[outputs[1 + b]];
      for (int lane = 0; lane < lanes; ++lane) {
        std::uint32_t code = 0;
        for (int b = 0; b < latches; ++b) {
          code |= static_cast<std::uint32_t>((next[b] >> lane) & 1) << b;
        }
        if (!seen[code]) {
          seen[code] = 1;
          successors.push_back(code);
        }
      }
    }
    frontier.swap(successors);
  }
  return std::nullopt;  // not within max_cycles (reachability beyond unknown)
}

bool TransitionSystem::trace_reaches_bad(
    const std::vector<std::vector<bool>>& inputs_per_cycle) const {
  if (inputs_per_cycle.empty()) return false;
  const auto outputs = circuit_.simulate(inputs_per_cycle);
  return outputs.back()[static_cast<std::size_t>(bad_output_)];
}

}  // namespace berkmin::engines
