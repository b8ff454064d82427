// Gate-level netlist with bit-parallel simulation.
//
// This is the substrate behind the paper's circuit-derived benchmark
// families: miters for equivalence checking (class Miters), adder logic
// (class Beijing), unrolled sequential designs (classes Sss*), and the
// pipelined-datapath instances (classes Fvp*/Vliw*).
//
// Gates are stored in topological order: a combinational gate may only
// refer to earlier gates. Latches close feedback loops — their input is
// set after creation and may point anywhere.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace berkmin {

enum class GateKind : std::uint8_t {
  input,
  const_zero,
  const_one,
  buf,
  not_gate,
  and_gate,
  or_gate,
  nand_gate,
  nor_gate,
  xor_gate,
  xnor_gate,
  latch,  // clocked storage element, initial state 0
};

const char* to_string(GateKind kind);

// True for the kinds whose output is a boolean function of ≥1 fanins.
bool is_combinational_kind(GateKind kind);

struct Gate {
  GateKind kind = GateKind::input;
  std::vector<int> fanins;
};

// Evaluate gate `gate` as `kind` instead of its own kind (see
// Circuit::evaluate_lanes); gate -1 overrides nothing.
struct KindOverride {
  int gate = -1;
  GateKind kind = GateKind::buf;
};

class Circuit {
 public:
  // --- construction ------------------------------------------------------
  int add_input();
  int add_const(bool value);
  // kind must be combinational; fanins must be existing earlier gates.
  int add_gate(GateKind kind, std::vector<int> fanins);
  int add_not(int a) { return add_gate(GateKind::not_gate, {a}); }
  int add_and(int a, int b) { return add_gate(GateKind::and_gate, {a, b}); }
  int add_or(int a, int b) { return add_gate(GateKind::or_gate, {a, b}); }
  int add_xor(int a, int b) { return add_gate(GateKind::xor_gate, {a, b}); }

  // Latches may be created before their next-state logic exists.
  int add_latch();
  void set_latch_input(int latch, int fanin);

  void mark_output(int gate);

  // --- structure ----------------------------------------------------------
  int num_gates() const { return static_cast<int>(gates_.size()); }
  const Gate& gate(int i) const { return gates_[i]; }
  const std::vector<int>& inputs() const { return inputs_; }
  const std::vector<int>& latches() const { return latches_; }
  const std::vector<int>& outputs() const { return outputs_; }
  int num_inputs() const { return static_cast<int>(inputs_.size()); }
  int num_outputs() const { return static_cast<int>(outputs_.size()); }
  bool is_combinational() const { return latches_.empty(); }

  // Checks structural sanity (arities, fanin ordering, latch inputs set).
  // Returns an empty string when valid, else a description of the problem.
  std::string validate() const;

  // --- simulation ---------------------------------------------------------
  // Bit-parallel evaluation, the one implementation of gate semantics.
  // A pass evaluates 64 independent assignments ("lanes") at once: bit j
  // of every word belongs to lane j. input_words[k] carries the k-th
  // input of inputs() and latch_words[k] the current state of the k-th
  // latch of latches(); values (one word per gate, caller-owned, so a pass
  // allocates nothing) receives every gate's output in all 64 lanes. A
  // latch's word is its current state; its next state is the word of its
  // fanin. Lanes a caller does not use carry garbage: mask them with
  // lane_mask. `kind_override`, when set, evaluates gate
  // `kind_override.gate` as `kind_override.kind` instead of its own kind:
  // the values a copy of the circuit with that one gate changed would
  // give. Throws std::invalid_argument on a size mismatch or an override
  // that names a non-combinational gate or kind.
  void evaluate_lanes(std::span<const std::uint64_t> input_words,
                      std::span<const std::uint64_t> latch_words,
                      std::span<std::uint64_t> values,
                      KindOverride kind_override = {}) const;

  // One-lane evaluation of a combinational circuit; input_values follows
  // the order of inputs(). Throws std::invalid_argument when the circuit
  // has latches or input_values has the wrong length.
  std::vector<bool> evaluate(const std::vector<bool>& input_values) const;

  // One-lane sequential simulation from the all-zero latch state; one
  // input vector per cycle, returns one output vector per cycle. Throws
  // std::invalid_argument when the circuit does not validate or a cycle's
  // input vector has the wrong length.
  std::vector<std::vector<bool>> simulate(
      const std::vector<std::vector<bool>>& inputs_per_cycle) const;

 private:
  std::vector<Gate> gates_;
  std::vector<int> inputs_;
  std::vector<int> latches_;
  std::vector<int> outputs_;
};

// The mask of lanes [0, lanes) of a simulation word; lanes in [0, 64].
constexpr std::uint64_t lane_mask(int lanes) {
  return lanes >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << lanes) - 1;
}

// Input bit `bit` of 64 consecutive vectors base, base + 1, ..., base + 63
// (base a multiple of 64), lane j carrying vector base + j: a pass with
// input i set to counting_word(i, base) enumerates those 64 vectors.
constexpr std::uint64_t counting_word(int bit, std::uint64_t base) {
  constexpr std::uint64_t kLowBits[6] = {
      0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
      0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};
  return bit < 6 ? kLowBits[bit] : std::uint64_t{0} - ((base >> bit) & 1);
}

}  // namespace berkmin
