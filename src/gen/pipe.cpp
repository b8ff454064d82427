#include "gen/pipe.h"

#include <algorithm>
#include <stdexcept>

#include "circuit/adders.h"
#include "circuit/circuit_gen.h"
#include "circuit/miter.h"
#include "circuit/multiplier.h"
#include "circuit/tseitin.h"
#include "circuit/unroll.h"
#include "util/rng.h"

namespace berkmin::gen {
namespace {

struct DatapathConfig {
  bool fast_adder = false;        // lookahead vs ripple carries
  bool with_multiplier = false;   // opcode 11 = low product half
  bool alt_multiplier = false;    // structurally different multiplier
  bool swap_operands = false;     // compute over (b, a)
  bool with_xor_spread = false;   // opcode 11 = ECC-style parity window
  bool reverse_xor_chains = false;  // chain the parity sums backwards
};

// Appends the word-level datapath: opcode 00 -> add, 01 -> and, 10 -> or,
// 11 -> xor (or the low product half when with_multiplier). Returns the
// result bits.
std::vector<int> build_datapath(Circuit& c, std::vector<int> a,
                                std::vector<int> b, int op0, int op1,
                                const DatapathConfig& config) {
  const int width = static_cast<int>(a.size());
  if (config.swap_operands) std::swap(a, b);

  std::vector<int> sum;
  if (config.fast_adder) {
    int carry = c.add_const(false);
    for (int i = 0; i < width; ++i) {
      const int propagate = c.add_xor(a[i], b[i]);
      const int generate = c.add_and(a[i], b[i]);
      sum.push_back(c.add_xor(propagate, carry));
      carry = c.add_or(generate, c.add_and(propagate, carry));
    }
  } else {
    const std::vector<int> with_carry = append_ripple_sum(c, a, b, -1);
    sum.assign(with_carry.begin(), with_carry.end() - 1);
  }

  // Fourth operation: xor, an ECC-style parity window, or the low half of
  // a multiplier built inline.
  std::vector<int> fourth;
  if (config.with_xor_spread) {
    // fourth[i] = XOR over a sliding window of operand bits. The window is
    // symmetric in a and b (so the unit commutes, keeping operand-swapped
    // references equivalent); both sides compute the same sums and only
    // the chaining order differs, so the correspondence requires parity
    // reasoning.
    const int window = std::max(2, width / 2);
    for (int i = 0; i < width; ++i) {
      std::vector<int> terms;
      for (int j = 0; j < window; ++j) {
        terms.push_back(a[(i + j) % width]);
        terms.push_back(b[(i + j) % width]);
      }
      if (config.reverse_xor_chains) {
        std::reverse(terms.begin(), terms.end());
      }
      int acc = terms[0];
      for (std::size_t t = 1; t < terms.size(); ++t) {
        acc = c.add_xor(acc, terms[t]);
      }
      fourth.push_back(acc);
    }
  } else if (config.with_multiplier) {
    MultiplierConfig mc;
    mc.swap_operands = config.alt_multiplier;
    mc.high_rows_first = config.alt_multiplier;
    Circuit mult_circuit = multiplier(width, mc);
    std::vector<int> mult_inputs;
    mult_inputs.insert(mult_inputs.end(), a.begin(), a.end());
    mult_inputs.insert(mult_inputs.end(), b.begin(), b.end());
    const std::vector<int> product =
        append_circuit(c, mult_circuit, mult_inputs);
    fourth.assign(product.begin(), product.begin() + width);
  } else {
    for (int i = 0; i < width; ++i) fourth.push_back(c.add_xor(a[i], b[i]));
  }

  const int is_add = c.add_and(c.add_not(op1), c.add_not(op0));
  const int is_and = c.add_and(c.add_not(op1), op0);
  const int is_or = c.add_and(op1, c.add_not(op0));
  const int is_fourth = c.add_and(op1, op0);

  std::vector<int> result;
  result.reserve(width);
  for (int i = 0; i < width; ++i) {
    result.push_back(c.add_gate(
        GateKind::or_gate,
        {c.add_and(is_add, sum[i]), c.add_and(is_and, c.add_and(a[i], b[i])),
         c.add_and(is_or, c.add_or(a[i], b[i])),
         c.add_and(is_fourth, fourth[i])}));
  }
  return result;
}

// The pipelined implementation: registered inputs, the datapath, and
// stages-1 result-delay register layers. With inputs held constant the
// outputs equal the datapath function after `stages` cycles.
Circuit pipelined_datapath(int width, int stages, const DatapathConfig& config) {
  Circuit c;
  std::vector<int> raw_inputs;
  for (int i = 0; i < 2 * width + 2; ++i) raw_inputs.push_back(c.add_input());

  std::vector<int> registered;
  registered.reserve(raw_inputs.size());
  for (const int in : raw_inputs) {
    const int latch = c.add_latch();
    c.set_latch_input(latch, in);
    registered.push_back(latch);
  }

  const std::vector<int> a(registered.begin(), registered.begin() + width);
  const std::vector<int> b(registered.begin() + width,
                           registered.begin() + 2 * width);
  std::vector<int> result = build_datapath(
      c, a, b, registered[2 * width], registered[2 * width + 1], config);

  for (int s = 1; s < stages; ++s) {
    std::vector<int> delayed;
    delayed.reserve(result.size());
    for (const int bit : result) {
      const int latch = c.add_latch();
      c.set_latch_input(latch, bit);
      delayed.push_back(latch);
    }
    result = std::move(delayed);
  }

  for (const int bit : result) c.mark_output(bit);
  return c;
}

// The full correspondence checker as one combinational circuit whose
// single output is 1 iff pipeline and reference disagree at the latency.
Circuit correspondence_circuit(const PipeParams& params) {
  DatapathConfig impl_config;
  impl_config.fast_adder = true;
  impl_config.with_multiplier = params.with_multiplier;
  impl_config.alt_multiplier = false;
  impl_config.with_xor_spread = params.with_xor_spread;
  impl_config.reverse_xor_chains = false;

  const Circuit impl = pipelined_datapath(params.width, params.stages,
                                          impl_config);
  const Circuit unrolled = unroll(impl, params.stages + 1);

  Circuit checker;
  std::vector<int> shared;
  for (int i = 0; i < 2 * params.width + 2; ++i) {
    shared.push_back(checker.add_input());
  }

  // Feed the same input vector into every time frame.
  std::vector<int> replicated;
  replicated.reserve(static_cast<std::size_t>(unrolled.num_inputs()));
  for (int frame = 0; frame < params.stages + 1; ++frame) {
    replicated.insert(replicated.end(), shared.begin(), shared.end());
  }
  const std::vector<int> unrolled_outputs =
      append_circuit(checker, unrolled, replicated);

  // The final frame's outputs are the pipeline's result at the latency.
  const std::vector<int> pipe_result(unrolled_outputs.end() - params.width,
                                     unrolled_outputs.end());

  // Reference: combinational datapath around ripple carries, optionally
  // over swapped operands and/or a differently scheduled multiplier.
  DatapathConfig spec_config;
  spec_config.fast_adder = false;
  spec_config.with_multiplier = params.with_multiplier;
  spec_config.alt_multiplier = params.with_multiplier;  // other structure
  spec_config.swap_operands = params.swap_spec_operands;
  spec_config.with_xor_spread = params.with_xor_spread;
  spec_config.reverse_xor_chains = true;
  const std::vector<int> a(shared.begin(), shared.begin() + params.width);
  const std::vector<int> b(shared.begin() + params.width,
                           shared.begin() + 2 * params.width);
  const std::vector<int> spec_result =
      build_datapath(checker, a, b, shared[2 * params.width],
                     shared[2 * params.width + 1], spec_config);

  std::vector<int> differences;
  differences.reserve(params.width);
  for (int i = 0; i < params.width; ++i) {
    differences.push_back(checker.add_xor(pipe_result[i], spec_result[i]));
  }
  const int mismatch = differences.size() == 1
                           ? differences[0]
                           : checker.add_gate(GateKind::or_gate, differences);
  checker.mark_output(mismatch);
  return checker;
}

}  // namespace

Cnf pipe_instance(const PipeParams& params) {
  if (params.width < 1 || params.stages < 1) {
    throw std::invalid_argument("pipe_instance: width and stages must be >= 1");
  }
  Circuit checker = correspondence_circuit(params);

  if (!params.correct) {
    Rng rng(params.seed);
    bool injected = false;
    for (int attempt = 0; attempt < 32 && !injected; ++attempt) {
      if (auto faulty = inject_fault(checker, rng)) {
        checker = std::move(*faulty);
        injected = true;
      }
    }
    if (!injected) {
      throw std::runtime_error("pipe_instance: no observable fault found");
    }
  }

  Cnf cnf;
  const std::vector<Lit> lits = encode_tseitin(checker, cnf);
  cnf.add_unit(lits[checker.outputs()[0]]);
  return cnf;
}

}  // namespace berkmin::gen
