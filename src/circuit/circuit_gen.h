// Random circuit generation and fault injection.
//
// The paper's Miters class used "artificial combinational circuits ...
// because their complexity was easy to control"; these generators play
// that role. Random sequential circuits feed the BMC-style families.
#pragma once

#include <optional>

#include "circuit/circuit.h"
#include "util/rng.h"

namespace berkmin {

struct RandomCircuitParams {
  int num_inputs = 8;
  int num_gates = 60;        // internal combinational gates
  int num_outputs = 4;
  int num_latches = 0;       // > 0 makes the circuit sequential
  double xor_fraction = 0.2; // how xor-rich the logic is (hardness knob)
};

// Generates a random connected circuit: every gate's fanins are drawn with
// a bias toward recent gates, giving depth rather than a flat netlist.
Circuit random_circuit(const RandomCircuitParams& params, Rng& rng);

// The fault model: and<->or, xor<->xnor, nand<->nor, not<->buf; any other
// kind maps to itself (not a fault site).
GateKind flipped_kind(GateKind kind);

// A copy of the combinational `circuit` with gate `target` evaluated as
// `kind`.
Circuit with_gate_kind(const Circuit& circuit, int target, GateKind kind);

// Returns a copy of `circuit` with one internal gate's function flipped
// by flipped_kind, verified by random simulation to change the output on
// at least one of `probe_vectors` random inputs. Candidates are tried in
// a shuffled order; each probe draws one rng.coin() per input, and rng is
// left just past the first differing probe's draws. Returns std::nullopt
// when no verified fault was found (rare; retry with another rng state).
// Combinational circuits only.
std::optional<Circuit> inject_fault(const Circuit& circuit, Rng& rng,
                                    int probe_vectors = 64);

}  // namespace berkmin
