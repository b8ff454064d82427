#include "gen/safety.h"

#include <stdexcept>
#include <utility>

#include "circuit/circuit_gen.h"
#include "circuit/tseitin.h"
#include "circuit/unroll.h"
#include "util/rng.h"

namespace berkmin::gen {
namespace {

Circuit candidate_circuit(const SafetyParams& params, std::uint64_t seed,
                          int* bad_output) {
  Rng rng(seed);
  RandomCircuitParams cp;
  cp.num_inputs = params.num_inputs;
  cp.num_gates = params.num_gates;
  cp.num_latches = params.num_latches;
  // Safe instances want a rarer bad signal — one more conjunct.
  cp.num_outputs = params.safe ? 3 : 2;
  if (params.latch_heavy) {
    cp.num_gates = 3 * params.num_latches;
    cp.xor_fraction = 0.1;
  }
  Circuit circuit = random_circuit(cp, rng);

  int bad = circuit.outputs()[0];
  for (int i = 1; i < cp.num_outputs; ++i) {
    bad = circuit.add_and(bad, circuit.outputs()[static_cast<std::size_t>(i)]);
  }
  circuit.mark_output(bad);
  if (bad_output != nullptr) *bad_output = cp.num_outputs;
  return circuit;
}

}  // namespace

Circuit safety_circuit(const SafetyParams& params, int* bad_output) {
  if (params.num_latches < 0 || params.num_latches > 22 ||
      params.num_inputs < 1 || params.num_inputs > 16) {
    throw std::invalid_argument(
        "safety_circuit: latches must be in [0,22] and inputs in [1,16] so "
        "BFS can certify the ground truth");
  }
  for (std::uint64_t attempt = 0; attempt < 256; ++attempt) {
    const std::uint64_t seed =
        params.seed + 0x9E3779B97F4A7C15ULL * (attempt + 1);
    int bad = 0;
    Circuit circuit = candidate_circuit(params, seed, &bad);
    const engines::TransitionSystem ts(circuit, bad);
    const std::optional<int> step = ts.reachable_bad_step();
    const bool matches = params.safe
                             ? !step.has_value()
                             : step.has_value() && *step < params.cycles;
    if (matches) {
      if (bad_output != nullptr) *bad_output = bad;
      return circuit;
    }
  }
  throw std::runtime_error(
      "safety_circuit: no seed in the search window yields the requested "
      "ground truth");
}

engines::TransitionSystem safety_system(const SafetyParams& params) {
  int bad = 0;
  Circuit circuit = safety_circuit(params, &bad);
  return engines::TransitionSystem(std::move(circuit), bad);
}

Cnf safety_cnf(const SafetyParams& params) {
  if (params.cycles < 1) {
    throw std::invalid_argument("safety_cnf: cycles must be >= 1");
  }
  int bad = 0;
  const Circuit circuit = safety_circuit(params, &bad);
  const Circuit unrolled = unroll(circuit, params.cycles);

  Cnf cnf;
  const std::vector<Lit> lits = encode_tseitin(unrolled, cnf);
  const int outputs_per_cycle = circuit.num_outputs();
  for (int c = 0; c < params.cycles; ++c) {
    const int gate =
        unrolled.outputs()[static_cast<std::size_t>(c * outputs_per_cycle + bad)];
    cnf.add_literal(lits[static_cast<std::size_t>(gate)]);
  }
  cnf.end_clause();
  return cnf;
}

}  // namespace berkmin::gen
