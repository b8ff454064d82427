// Combinational equivalence checking with the solver — the paper's own
// motivating application (its Miters benchmarks encode exactly this).
//
//   ./build/examples/equivalence_checker [--width 6] [--seed 1]
//
// Checks three pairs: two structurally different adders (equivalent), a
// random circuit against a rewritten copy (equivalent), and against a
// fault-injected copy (not equivalent, with a counterexample).
#include <iostream>

#include "circuit/adders.h"
#include "circuit/circuit_gen.h"
#include "circuit/miter.h"
#include "circuit/rewrite.h"
#include "circuit/tseitin.h"
#include "core/solver.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace berkmin;

namespace {

// Runs the equivalence check and reports; returns true when the circuits
// are equivalent. When they differ, extracts and validates the
// counterexample input vector from the model.
bool check_equivalence(const std::string& label, const Circuit& left,
                       const Circuit& right) {
  const Circuit miter = build_miter(left, right);
  Cnf cnf;
  const std::vector<Lit> lits = encode_tseitin(miter, cnf);
  cnf.add_unit(lits[miter.outputs()[0]]);

  Solver solver(SolverOptions::berkmin());
  solver.load(cnf);
  WallTimer timer;
  const SolveStatus status = solver.solve();
  std::cout << label << ": ";

  if (status == SolveStatus::unsatisfiable) {
    std::cout << "EQUIVALENT";
  } else {
    std::cout << "NOT EQUIVALENT, counterexample inputs:";
    std::vector<bool> input;
    for (const int in : miter.inputs()) {
      input.push_back(solver.model_value(lits[in]));
      std::cout << ' ' << (input.back() ? 1 : 0);
    }
    // Demonstrate the counterexample by simulation.
    const bool differs = left.evaluate(input) != right.evaluate(input);
    std::cout << (differs ? " (verified by simulation)" : " (BUG: no diff!)");
  }
  std::cout << "  [" << timer.seconds() << " s, "
            << solver.stats().conflicts << " conflicts]\n";
  return status == SolveStatus::unsatisfiable;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  args.add_option("width", "6", "adder width in bits",
                  {.min = 1, .max = kMaxInt});
  args.add_option("gates", "80", "random circuit size",
                  {.min = 1, .max = kMaxInt});
  args.add_option("seed", "1", "generator seed");
  args.add_flag("help", "show this help");
  if (!args.parse()) {
    std::cerr << "error: " << args.error() << "\n";
    return 1;
  }
  if (args.has_flag("help")) {
    std::cout << args.help(
        "equivalence_checker — combinational equivalence checking by SAT");
    return 0;
  }
  const int width = static_cast<int>(args.get_int("width"));
  const int gates = static_cast<int>(args.get_int("gates"));
  Rng rng(static_cast<std::uint64_t>(args.get_int("seed")));

  // 1. Two adder implementations with very different structure.
  check_equivalence("ripple-carry vs carry-lookahead adder (" +
                        std::to_string(width) + " bits)",
                    ripple_carry_adder(width), carry_lookahead_adder(width));

  // 2. A random circuit against a semantics-preserving rewrite of itself.
  RandomCircuitParams params;
  params.num_inputs = 8;
  params.num_gates = gates;
  params.num_outputs = 4;
  const Circuit base = random_circuit(params, rng);
  check_equivalence("random circuit vs rewritten copy", base,
                    rewrite_equivalent(base, rng));

  // 3. The same circuit with an injected gate fault.
  if (const auto faulty = inject_fault(base, rng)) {
    check_equivalence("random circuit vs fault-injected copy", base, *faulty);
  } else {
    std::cout << "fault injection found no observable fault (rare)\n";
  }
  return 0;
}
