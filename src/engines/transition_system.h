// Symbolic transition systems over gate-level circuits.
//
// A TransitionSystem wraps a sequential circuit::Circuit together with a
// designated *bad* output and presents the three views every model-checking
// engine needs:
//
//   * the sequential circuit itself (for counterexample replay through
//     Circuit::simulate — a trace is only believed after it reproduces the
//     bad output in plain simulation);
//   * one combinational *slice*: latches become state inputs, the latch
//     next-state functions and the bad signal become outputs, so one copy
//     of the slice is one time frame of the unrolling;
//   * a Tseitin FrameTemplate of the slice (cnf/literal indices for the
//     primary inputs, current state, next state and the bad signal) that
//     engines instantiate once per time frame with a variable offset.
//
// The initial state is the all-zero latch assignment — the same convention
// Circuit::simulate and circuit::unroll use. The safety property checked by
// the engines is "the bad output is never 1".
//
// For the small seeded instances the tests and property suites generate,
// the exact answer is computable by explicit-state breadth-first search
// (reachable_bad_step); engines are differentially validated against it.
#pragma once

#include <optional>
#include <vector>

#include "circuit/circuit.h"
#include "cnf/cnf_formula.h"
#include "cnf/literal.h"

namespace berkmin::engines {

// Tseitin encoding of one time frame (the combinational slice). All
// literals are positive and index variables of `cnf`; engines shift them
// by a per-frame variable offset.
struct FrameTemplate {
  Cnf cnf;
  std::vector<Lit> inputs;  // one per primary input, circuit input order
  std::vector<Lit> state;   // one per latch: the frame's incoming state
  std::vector<Lit> next;    // one per latch: the next-state function value
  Lit bad = undef_lit;      // the bad signal of this frame
};

class TransitionSystem {
 public:
  // `bad_output` indexes circuit.outputs(). The circuit must validate; a
  // latch-free circuit is a legal (stateless) transition system whose
  // property is decided entirely by cycle 0.
  explicit TransitionSystem(Circuit circuit, int bad_output = 0);

  const Circuit& circuit() const { return circuit_; }
  int num_latches() const { return static_cast<int>(circuit_.latches().size()); }
  int num_inputs() const { return circuit_.num_inputs(); }
  int bad_output() const { return bad_output_; }

  // The combinational slice: inputs are the primary inputs plus one state
  // input per latch; outputs are [bad, next_0, ..., next_{L-1}].
  const Circuit& sliced() const { return sliced_; }
  const FrameTemplate& frame() const { return frame_; }

  // Evaluates one step: given a latch state and primary-input values,
  // returns the bad value and writes the successor state into *next.
  bool step(const std::vector<bool>& state, const std::vector<bool>& inputs,
            std::vector<bool>* next) const;

  // Explicit-state reachability from the all-zero initial state, trying
  // every input vector at every frontier state. Returns the earliest cycle
  // t at which bad can be 1 (a counterexample has t+1 input vectors), or
  // nullopt when bad is unreachable within `max_cycles` (max_cycles < 0
  // runs to the reachable-set fixpoint, i.e. proves full safety). Each
  // pass of the slice's bit-parallel evaluator covers 64 (frontier state,
  // input vector) pairs. Requires num_latches() <= 22 and
  // num_inputs() <= 16; throws otherwise.
  std::optional<int> reachable_bad_step(int max_cycles = -1) const;

  // Replays a candidate counterexample through plain sequential simulation
  // of the original circuit: true iff the bad output is 1 at the last
  // cycle. An engine's SAT verdict is only reported as validated when its
  // extracted input trace passes this check.
  bool trace_reaches_bad(
      const std::vector<std::vector<bool>>& inputs_per_cycle) const;

 private:
  Circuit circuit_;
  int bad_output_ = 0;
  Circuit sliced_;
  // Positions of the primary/state inputs within sliced_.inputs() (the
  // slice interleaves them in gate-creation order).
  std::vector<int> input_pos_;
  std::vector<int> state_pos_;
  FrameTemplate frame_;
};

}  // namespace berkmin::engines
