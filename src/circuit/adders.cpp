#include "circuit/adders.h"

#include <stdexcept>

namespace berkmin {
namespace {

struct FullAdderOut {
  int sum;
  int carry;
};

FullAdderOut full_adder(Circuit& c, int a, int b, int cin) {
  const int axb = c.add_xor(a, b);
  const int sum = c.add_xor(axb, cin);
  const int carry = c.add_or(c.add_and(a, b), c.add_and(axb, cin));
  return {sum, carry};
}

struct Operands {
  std::vector<int> a;
  std::vector<int> b;
};

Operands add_operand_inputs(Circuit& c, int width) {
  Operands ops;
  for (int i = 0; i < width; ++i) ops.a.push_back(c.add_input());
  for (int i = 0; i < width; ++i) ops.b.push_back(c.add_input());
  return ops;
}

// Adds the w sum bits + carry-out for the given operand signals with a
// ripple-carry structure; cin may be -1 (constant 0).
std::vector<int> ripple_sum(Circuit& c, const std::vector<int>& a,
                            const std::vector<int>& b, int cin) {
  std::vector<int> outs;
  int carry = cin >= 0 ? cin : c.add_const(false);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const FullAdderOut fa = full_adder(c, a[i], b[i], carry);
    outs.push_back(fa.sum);
    carry = fa.carry;
  }
  outs.push_back(carry);
  return outs;
}

int mux(Circuit& c, int select, int when_zero, int when_one) {
  const int left = c.add_and(c.add_not(select), when_zero);
  const int right = c.add_and(select, when_one);
  return c.add_or(left, right);
}

}  // namespace

Circuit ripple_carry_adder(int width) {
  if (width < 1) throw std::invalid_argument("adder width must be >= 1");
  Circuit c;
  const Operands ops = add_operand_inputs(c, width);
  for (const int s : ripple_sum(c, ops.a, ops.b, -1)) c.mark_output(s);
  return c;
}

Circuit carry_select_adder(int width, int block) {
  if (width < 1) throw std::invalid_argument("adder width must be >= 1");
  if (block < 1) throw std::invalid_argument("block must be >= 1");
  Circuit c;
  const Operands ops = add_operand_inputs(c, width);

  std::vector<int> sums;
  int carry = c.add_const(false);
  for (int lo = 0; lo < width; lo += block) {
    const int hi = std::min(lo + block, width);
    const std::vector<int> a(ops.a.begin() + lo, ops.a.begin() + hi);
    const std::vector<int> b(ops.b.begin() + lo, ops.b.begin() + hi);

    // Compute the block twice, assuming carry-in 0 and 1, then select.
    const std::vector<int> with0 = ripple_sum(c, a, b, c.add_const(false));
    const std::vector<int> with1 = ripple_sum(c, a, b, c.add_const(true));
    for (std::size_t i = 0; i + 1 < with0.size(); ++i) {
      sums.push_back(mux(c, carry, with0[i], with1[i]));
    }
    carry = mux(c, carry, with0.back(), with1.back());
  }
  for (const int s : sums) c.mark_output(s);
  c.mark_output(carry);
  return c;
}

Circuit carry_lookahead_adder(int width) {
  if (width < 1) throw std::invalid_argument("adder width must be >= 1");
  Circuit c;
  const Operands ops = add_operand_inputs(c, width);

  // Bitwise generate/propagate, then carries expanded directly:
  // c[i+1] = g[i] | (p[i] & c[i]), unrolled into two-level-ish logic.
  std::vector<int> generate(width);
  std::vector<int> propagate(width);
  for (int i = 0; i < width; ++i) {
    generate[i] = c.add_and(ops.a[i], ops.b[i]);
    propagate[i] = c.add_xor(ops.a[i], ops.b[i]);
  }

  std::vector<int> carry(width + 1);
  carry[0] = c.add_const(false);
  for (int i = 0; i < width; ++i) {
    // carry[i+1] = g[i] | p[i]&g[i-1] | p[i]&p[i-1]&g[i-2] | ...
    std::vector<int> terms{generate[i]};
    int prefix = propagate[i];
    for (int j = i - 1; j >= 0; --j) {
      terms.push_back(c.add_and(prefix, generate[j]));
      if (j > 0) prefix = c.add_and(prefix, propagate[j]);
    }
    carry[i + 1] =
        terms.size() == 1 ? terms[0] : c.add_gate(GateKind::or_gate, terms);
  }

  for (int i = 0; i < width; ++i) c.mark_output(c.add_xor(propagate[i], carry[i]));
  c.mark_output(carry[width]);
  return c;
}

std::vector<int> append_ripple_sum(Circuit& c, const std::vector<int>& a,
                                   const std::vector<int>& b, int cin) {
  return ripple_sum(c, a, b, cin);
}

std::vector<int> append_alu(Circuit& c, const std::vector<int>& a,
                            const std::vector<int>& b, int op0, int op1,
                            bool use_fast_adder) {
  const int width = static_cast<int>(a.size());

  // Adder implementation is the structural variation point.
  std::vector<int> sum;
  if (use_fast_adder) {
    // Lookahead-style carries.
    std::vector<int> generate(width);
    std::vector<int> propagate(width);
    for (int i = 0; i < width; ++i) {
      generate[i] = c.add_and(a[i], b[i]);
      propagate[i] = c.add_xor(a[i], b[i]);
    }
    int carry = c.add_const(false);
    for (int i = 0; i < width; ++i) {
      sum.push_back(c.add_xor(propagate[i], carry));
      carry = c.add_or(generate[i], c.add_and(propagate[i], carry));
    }
  } else {
    const std::vector<int> with_carry = ripple_sum(c, a, b, -1);
    sum.assign(with_carry.begin(), with_carry.end() - 1);
  }

  const int is_add = c.add_and(c.add_not(op1), c.add_not(op0));
  const int is_and = c.add_and(c.add_not(op1), op0);
  const int is_or = c.add_and(op1, c.add_not(op0));
  const int is_xor = c.add_and(op1, op0);

  std::vector<int> result;
  result.reserve(width);
  for (int i = 0; i < width; ++i) {
    const int and_bit = c.add_and(a[i], b[i]);
    const int or_bit = c.add_or(a[i], b[i]);
    const int xor_bit = c.add_xor(a[i], b[i]);
    result.push_back(c.add_gate(
        GateKind::or_gate,
        {c.add_and(is_add, sum[i]), c.add_and(is_and, and_bit),
         c.add_and(is_or, or_bit), c.add_and(is_xor, xor_bit)}));
  }
  return result;
}

}  // namespace berkmin
