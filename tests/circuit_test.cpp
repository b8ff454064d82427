// Circuit substrate: simulation semantics, Tseitin encoding correctness,
// miters, rewriting, fault injection, unrolling, and the arithmetic
// circuits.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

#include "circuit/adders.h"
#include "circuit/circuit.h"
#include "circuit/circuit_gen.h"
#include "circuit/miter.h"
#include "circuit/rewrite.h"
#include "circuit/tseitin.h"
#include "circuit/unroll.h"
#include "core/solver.h"
#include "reference/brute_force.h"
#include "util/rng.h"

namespace berkmin {
namespace {

Circuit half_adder() {
  Circuit c;
  const int a = c.add_input();
  const int b = c.add_input();
  c.mark_output(c.add_xor(a, b));
  c.mark_output(c.add_and(a, b));
  return c;
}

TEST(Circuit, EvaluateHalfAdder) {
  const Circuit c = half_adder();
  EXPECT_EQ(c.evaluate({false, false}), (std::vector<bool>{false, false}));
  EXPECT_EQ(c.evaluate({true, false}), (std::vector<bool>{true, false}));
  EXPECT_EQ(c.evaluate({false, true}), (std::vector<bool>{true, false}));
  EXPECT_EQ(c.evaluate({true, true}), (std::vector<bool>{false, true}));
}

// One gate of `kind` over inputs carrying `fanin_values`, through the
// 64-lane kernel (lane 0).
bool gate_value(GateKind kind, const std::vector<bool>& fanin_values) {
  Circuit c;
  std::vector<int> fanins;
  for (std::size_t i = 0; i < fanin_values.size(); ++i) fanins.push_back(c.add_input());
  const int g = c.add_gate(kind, fanins);
  const std::vector<std::uint64_t> inputs(fanin_values.begin(), fanin_values.end());
  std::vector<std::uint64_t> values(static_cast<std::size_t>(c.num_gates()));
  c.evaluate_lanes(inputs, {}, values);
  return (values[static_cast<std::size_t>(g)] & 1) != 0;
}

TEST(Circuit, GateFunctions) {
  EXPECT_TRUE(gate_value(GateKind::and_gate, {true, true}));
  EXPECT_FALSE(gate_value(GateKind::and_gate, {true, false}));
  EXPECT_TRUE(gate_value(GateKind::nand_gate, {true, false}));
  EXPECT_TRUE(gate_value(GateKind::or_gate, {false, true}));
  EXPECT_FALSE(gate_value(GateKind::nor_gate, {false, true}));
  EXPECT_TRUE(gate_value(GateKind::xor_gate, {true, false, false}));
  EXPECT_FALSE(gate_value(GateKind::xor_gate, {true, true, false}));
  EXPECT_TRUE(gate_value(GateKind::xnor_gate, {true, true}));
  EXPECT_FALSE(gate_value(GateKind::not_gate, {true}));
  EXPECT_TRUE(gate_value(GateKind::buf, {true}));
}

TEST(Circuit, EvaluateRejectsSequentialCircuits) {
  Circuit c;
  const int latch = c.add_latch();
  const int in = c.add_input();
  c.set_latch_input(latch, in);
  c.mark_output(c.add_and(latch, in));
  EXPECT_THROW(c.evaluate({true}), std::invalid_argument);
}

TEST(Circuit, EvaluateRejectsWrongInputCount) {
  const Circuit c = half_adder();
  EXPECT_THROW(c.evaluate({true}), std::invalid_argument);
  EXPECT_THROW(c.evaluate({}), std::invalid_argument);
  EXPECT_THROW(c.evaluate({true, false, true}), std::invalid_argument);
}

TEST(Circuit, SimulateRejectsWrongInputCountAndInvalidCircuits) {
  Circuit c;
  const int latch = c.add_latch();
  const int in = c.add_input();
  c.set_latch_input(latch, in);
  c.mark_output(latch);
  EXPECT_THROW(c.simulate({{true}, {}}), std::invalid_argument);
  EXPECT_THROW(c.simulate({{true, false}}), std::invalid_argument);

  Circuit unset;
  unset.add_latch();  // next-state input never set
  unset.mark_output(0);
  EXPECT_THROW(unset.simulate({{}}), std::invalid_argument);
}

TEST(Circuit, ValidationCatchesBadArity) {
  Circuit c;
  const int a = c.add_input();
  EXPECT_THROW(c.add_gate(GateKind::and_gate, {a}), std::invalid_argument);
  EXPECT_THROW(c.add_gate(GateKind::not_gate, {a, a}), std::invalid_argument);
  EXPECT_THROW(c.add_gate(GateKind::input, {}), std::invalid_argument);
  EXPECT_THROW(c.add_gate(GateKind::and_gate, {a, 99}), std::invalid_argument);
}

TEST(Circuit, LatchValidation) {
  Circuit c;
  const int latch = c.add_latch();
  EXPECT_NE(c.validate(), "");  // latch input unset
  c.set_latch_input(latch, c.add_input());
  EXPECT_EQ(c.validate(), "");
  EXPECT_FALSE(c.is_combinational());
}

TEST(Circuit, SequentialSimulationDelaysByOneCycle) {
  // A single latch fed by the input: output is the input delayed by one.
  Circuit c;
  const int latch = c.add_latch();
  const int in = c.add_input();
  c.set_latch_input(latch, in);
  c.mark_output(latch);
  const auto outs = c.simulate({{true}, {false}, {true}});
  ASSERT_EQ(outs.size(), 3u);
  EXPECT_FALSE(outs[0][0]);  // initial state 0
  EXPECT_TRUE(outs[1][0]);
  EXPECT_FALSE(outs[2][0]);
}

// Exhaustively checks that the Tseitin encoding of a circuit has exactly
// the circuit's behaviour: for every input vector, fixing the input
// literals makes the formula satisfiable with matching output values.
void check_tseitin_exhaustive(const Circuit& circuit) {
  ASSERT_LE(circuit.num_inputs(), 8);
  Cnf base;
  const std::vector<Lit> lits = encode_tseitin(circuit, base);

  const int n = circuit.num_inputs();
  for (int bits = 0; bits < (1 << n); ++bits) {
    std::vector<bool> input(n);
    for (int i = 0; i < n; ++i) input[i] = ((bits >> i) & 1) != 0;
    const std::vector<bool> expected = circuit.evaluate(input);

    Solver solver;
    solver.load(base);
    for (int i = 0; i < n; ++i) {
      const Lit in_lit = lits[circuit.inputs()[i]];
      solver.add_clause({input[i] ? in_lit : ~in_lit});
    }
    ASSERT_EQ(solver.solve(), SolveStatus::satisfiable);
    for (int o = 0; o < circuit.num_outputs(); ++o) {
      EXPECT_EQ(solver.model_value(lits[circuit.outputs()[o]]), expected[o])
          << "bits=" << bits << " output=" << o;
    }
  }
}

TEST(Tseitin, HalfAdderExhaustive) { check_tseitin_exhaustive(half_adder()); }

TEST(Tseitin, AllGateKindsExhaustive) {
  Circuit c;
  const int a = c.add_input();
  const int b = c.add_input();
  const int d = c.add_input();
  c.mark_output(c.add_gate(GateKind::and_gate, {a, b, d}));
  c.mark_output(c.add_gate(GateKind::or_gate, {a, b, d}));
  c.mark_output(c.add_gate(GateKind::nand_gate, {a, b}));
  c.mark_output(c.add_gate(GateKind::nor_gate, {b, d}));
  c.mark_output(c.add_gate(GateKind::xor_gate, {a, b, d}));
  c.mark_output(c.add_gate(GateKind::xnor_gate, {a, d}));
  c.mark_output(c.add_gate(GateKind::buf, {a}));
  c.mark_output(c.add_gate(GateKind::not_gate, {b}));
  const int k0 = c.add_const(false);
  const int k1 = c.add_const(true);
  c.mark_output(c.add_or(k0, k1));
  check_tseitin_exhaustive(c);
}

TEST(Tseitin, RandomCircuitsExhaustive) {
  Rng rng(3);
  for (int round = 0; round < 5; ++round) {
    RandomCircuitParams params;
    params.num_inputs = 5;
    params.num_gates = 25;
    params.num_outputs = 3;
    check_tseitin_exhaustive(random_circuit(params, rng));
  }
}

TEST(Tseitin, RejectsSequentialCircuits) {
  Circuit c;
  const int latch = c.add_latch();
  c.set_latch_input(latch, c.add_input());
  c.mark_output(latch);
  Cnf cnf;
  EXPECT_THROW(encode_tseitin(c, cnf), std::invalid_argument);
}

TEST(Miter, EquivalentCircuitsGiveUnsat) {
  Rng rng(11);
  RandomCircuitParams params;
  params.num_inputs = 6;
  params.num_gates = 40;
  params.num_outputs = 3;
  const Circuit base = random_circuit(params, rng);
  const Circuit rewritten = rewrite_equivalent(base, rng);
  Solver solver;
  solver.load(miter_cnf(base, rewritten));
  EXPECT_EQ(solver.solve(), SolveStatus::unsatisfiable);
}

TEST(Miter, FaultyCircuitsGiveSat) {
  Rng rng(12);
  RandomCircuitParams params;
  params.num_inputs = 6;
  params.num_gates = 40;
  params.num_outputs = 3;
  const Circuit base = random_circuit(params, rng);
  const auto faulty = inject_fault(base, rng);
  ASSERT_TRUE(faulty.has_value());
  Solver solver;
  solver.load(miter_cnf(base, *faulty));
  ASSERT_EQ(solver.solve(), SolveStatus::satisfiable);
}

TEST(Miter, SatModelIsARealCounterexample) {
  Rng rng(13);
  RandomCircuitParams params;
  params.num_inputs = 5;
  params.num_gates = 30;
  params.num_outputs = 2;
  const Circuit base = random_circuit(params, rng);
  const auto faulty = inject_fault(base, rng);
  ASSERT_TRUE(faulty.has_value());

  const Circuit miter = build_miter(base, *faulty);
  Cnf cnf;
  const std::vector<Lit> lits = encode_tseitin(miter, cnf);
  cnf.add_unit(lits[miter.outputs()[0]]);
  Solver solver;
  solver.load(cnf);
  ASSERT_EQ(solver.solve(), SolveStatus::satisfiable);

  // Decode the input vector from the model and confirm the circuits
  // really differ on it.
  std::vector<bool> input;
  for (const int in : miter.inputs()) {
    input.push_back(solver.model_value(lits[in]));
  }
  EXPECT_NE(base.evaluate(input), faulty->evaluate(input));
}

TEST(Miter, InterfaceMismatchThrows) {
  Circuit a = half_adder();
  Circuit b;
  b.add_input();
  b.mark_output(b.add_not(0));
  EXPECT_THROW(build_miter(a, b), std::invalid_argument);
}

TEST(Rewrite, PreservesSemanticsExhaustively) {
  Rng rng(21);
  for (int round = 0; round < 4; ++round) {
    RandomCircuitParams params;
    params.num_inputs = 6;
    params.num_gates = 30;
    params.num_outputs = 3;
    const Circuit base = random_circuit(params, rng);
    const Circuit rewritten = rewrite_equivalent(base, rng);
    for (int bits = 0; bits < (1 << 6); ++bits) {
      std::vector<bool> input(6);
      for (int i = 0; i < 6; ++i) input[i] = ((bits >> i) & 1) != 0;
      ASSERT_EQ(base.evaluate(input), rewritten.evaluate(input))
          << "round " << round << " bits " << bits;
    }
  }
}

TEST(Rewrite, ChangesStructure) {
  Rng rng(22);
  RandomCircuitParams params;
  params.num_inputs = 5;
  params.num_gates = 30;
  const Circuit base = random_circuit(params, rng);
  const Circuit rewritten = rewrite_equivalent(base, rng);
  EXPECT_NE(base.num_gates(), rewritten.num_gates());
}

TEST(Unroll, MatchesSequentialSimulation) {
  Rng rng(31);
  RandomCircuitParams params;
  params.num_inputs = 3;
  params.num_gates = 25;
  params.num_latches = 4;
  params.num_outputs = 2;
  const Circuit seq = random_circuit(params, rng);
  const int cycles = 4;
  const Circuit flat = unroll(seq, cycles);
  ASSERT_EQ(flat.num_inputs(), 3 * cycles);
  ASSERT_EQ(flat.num_outputs(), 2 * cycles);

  for (int round = 0; round < 20; ++round) {
    std::vector<std::vector<bool>> per_cycle(cycles, std::vector<bool>(3));
    std::vector<bool> flat_inputs;
    for (int t = 0; t < cycles; ++t) {
      for (int i = 0; i < 3; ++i) {
        per_cycle[t][i] = rng.coin();
        flat_inputs.push_back(per_cycle[t][i]);
      }
    }
    const auto seq_out = seq.simulate(per_cycle);
    const auto flat_out = flat.evaluate(flat_inputs);
    for (int t = 0; t < cycles; ++t) {
      for (int o = 0; o < 2; ++o) {
        EXPECT_EQ(flat_out[t * 2 + o], seq_out[t][o])
            << "cycle " << t << " output " << o;
      }
    }
  }
}

TEST(Unroll, DegenerateCycleCountsThrow) {
  Rng rng(5);
  RandomCircuitParams params;
  params.num_latches = 2;
  const Circuit seq = random_circuit(params, rng);
  EXPECT_THROW(unroll(seq, 0), std::invalid_argument);
  EXPECT_THROW(unroll(seq, -3), std::invalid_argument);
  // One cycle is the smallest legal unrolling: latches read their initial
  // zero, so it equals one combinational evaluation from the zero state.
  const Circuit one = unroll(seq, 1);
  EXPECT_EQ(one.num_inputs(), seq.num_inputs());
  EXPECT_EQ(one.num_outputs(), seq.num_outputs());
}

TEST(Unroll, LatchFreeCircuitReplicatesPerCycle) {
  // A latch-free circuit is a legal (stateless) sequential circuit: the
  // unrolling is `cycles` independent copies sharing nothing.
  const Circuit comb = half_adder();
  const int cycles = 3;
  const Circuit flat = unroll(comb, cycles);
  ASSERT_EQ(flat.num_inputs(), comb.num_inputs() * cycles);
  ASSERT_EQ(flat.num_outputs(), comb.num_outputs() * cycles);

  Rng rng(9);
  for (int round = 0; round < 16; ++round) {
    std::vector<std::vector<bool>> per_cycle(
        cycles, std::vector<bool>(static_cast<std::size_t>(comb.num_inputs())));
    std::vector<bool> flat_inputs;
    for (auto& cycle : per_cycle) {
      for (std::size_t i = 0; i < cycle.size(); ++i) {
        cycle[i] = rng.coin();
        flat_inputs.push_back(cycle[i]);
      }
    }
    const auto flat_out = flat.evaluate(flat_inputs);
    for (int t = 0; t < cycles; ++t) {
      const auto want = comb.evaluate(per_cycle[static_cast<std::size_t>(t)]);
      for (int o = 0; o < comb.num_outputs(); ++o) {
        EXPECT_EQ(flat_out[static_cast<std::size_t>(t * comb.num_outputs() + o)],
                  want[static_cast<std::size_t>(o)])
            << "cycle " << t << " output " << o;
      }
    }
  }
}

TEST(Unroll, RejectsInvalidCircuits) {
  Circuit broken;
  broken.add_latch();  // latch input never set
  EXPECT_THROW(unroll(broken, 2), std::invalid_argument);
}

// --- arithmetic circuits -------------------------------------------------

unsigned decode_bits(const std::vector<bool>& bits) {
  unsigned value = 0;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits[i]) value |= 1u << i;
  }
  return value;
}

void check_adder_exhaustive(const Circuit& adder, int width) {
  ASSERT_EQ(adder.num_inputs(), 2 * width);
  ASSERT_EQ(adder.num_outputs(), width + 1);
  for (unsigned a = 0; a < (1u << width); ++a) {
    for (unsigned b = 0; b < (1u << width); ++b) {
      std::vector<bool> input;
      for (int i = 0; i < width; ++i) input.push_back(((a >> i) & 1) != 0);
      for (int i = 0; i < width; ++i) input.push_back(((b >> i) & 1) != 0);
      EXPECT_EQ(decode_bits(adder.evaluate(input)), a + b)
          << "a=" << a << " b=" << b;
    }
  }
}

TEST(Adders, RippleCarryIsCorrect) {
  check_adder_exhaustive(ripple_carry_adder(4), 4);
}

TEST(Adders, CarrySelectIsCorrect) {
  check_adder_exhaustive(carry_select_adder(4), 4);
  check_adder_exhaustive(carry_select_adder(5, 3), 5);
}

TEST(Adders, CarryLookaheadIsCorrect) {
  check_adder_exhaustive(carry_lookahead_adder(4), 4);
}

TEST(Adders, ImplementationsAreEquivalentViaSat) {
  Solver solver;
  solver.load(miter_cnf(ripple_carry_adder(3), carry_select_adder(3)));
  EXPECT_EQ(solver.solve(), SolveStatus::unsatisfiable);
}

// The pipe generator's ALU as a standalone circuit: inputs a[0..w-1],
// b[0..w-1], op0, op1; outputs the w result bits.
Circuit alu_circuit(int width, bool use_fast_adder) {
  Circuit c;
  std::vector<int> a, b;
  for (int i = 0; i < width; ++i) a.push_back(c.add_input());
  for (int i = 0; i < width; ++i) b.push_back(c.add_input());
  const int op0 = c.add_input();
  const int op1 = c.add_input();
  for (const int bit : append_alu(c, a, b, op0, op1, use_fast_adder)) c.mark_output(bit);
  return c;
}

// Every row of the ALU's truth table through the 64-lane kernel: input i
// of row r is bit i of r. Returns each row's result word.
std::vector<unsigned> alu_rows(const Circuit& alu) {
  const int n = alu.num_inputs();
  const std::size_t rows = std::size_t{1} << n;
  std::vector<std::uint64_t> inputs(static_cast<std::size_t>(n));
  std::vector<std::uint64_t> values(static_cast<std::size_t>(alu.num_gates()));
  std::vector<unsigned> results(rows, 0);
  for (std::size_t base = 0; base < rows; base += 64) {
    for (int i = 0; i < n; ++i) inputs[static_cast<std::size_t>(i)] = counting_word(i, base);
    alu.evaluate_lanes(inputs, {}, values);
    for (std::size_t lane = 0; lane < 64 && base + lane < rows; ++lane) {
      for (int o = 0; o < alu.num_outputs(); ++o) {
        if ((values[static_cast<std::size_t>(alu.outputs()[o])] >> lane) & 1) {
          results[base + lane] |= 1u << o;
        }
      }
    }
  }
  return results;
}

TEST(Alu, BothVariantsMatchExhaustively) {
  const int width = 3;
  const std::vector<unsigned> slow = alu_rows(alu_circuit(width, false));
  const std::vector<unsigned> fast = alu_rows(alu_circuit(width, true));
  ASSERT_EQ(slow.size(), std::size_t{1} << (2 * width + 2));
  EXPECT_EQ(slow, fast);
}

TEST(Alu, OpcodeSemantics) {
  const int width = 4;
  const unsigned mask = (1u << width) - 1;
  for (const bool fast : {false, true}) {
    const std::vector<unsigned> rows = alu_rows(alu_circuit(width, fast));
    ASSERT_EQ(rows.size(), std::size_t{1} << (2 * width + 2));
    for (unsigned row = 0; row < rows.size(); ++row) {
      const unsigned a = row & mask;
      const unsigned b = (row >> width) & mask;
      const unsigned op = row >> (2 * width);  // op0 is bit 0, op1 bit 1
      const unsigned want = op == 0   ? (a + b) & mask  // add (mod 2^w)
                            : op == 1 ? a & b
                            : op == 2 ? a | b
                                      : a ^ b;
      ASSERT_EQ(rows[row], want) << "fast " << fast << " a " << a << " b " << b
                                 << " op " << op;
    }
  }
}

}  // namespace
}  // namespace berkmin
