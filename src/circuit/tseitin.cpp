#include "circuit/tseitin.h"

#include <cassert>
#include <stdexcept>

namespace berkmin {
namespace {

// g <-> AND(fanins): (~g | f_i) for each i, (g | ~f_1 | ... | ~f_n).
void encode_and(Cnf& cnf, Lit g, const std::vector<Lit>& fanins) {
  for (const Lit f : fanins) cnf.add_binary(~g, f);
  cnf.add_literal(g);
  for (const Lit f : fanins) cnf.add_literal(~f);
  cnf.end_clause();
}

// g <-> OR(fanins): (g | ~f_i) for each i, (~g | f_1 | ... | f_n).
void encode_or(Cnf& cnf, Lit g, const std::vector<Lit>& fanins) {
  for (const Lit f : fanins) cnf.add_binary(g, ~f);
  cnf.add_literal(~g);
  for (const Lit f : fanins) cnf.add_literal(f);
  cnf.end_clause();
}

// g <-> a XOR b: the four standard clauses.
void encode_xor2(Cnf& cnf, Lit g, Lit a, Lit b) {
  cnf.add_ternary(~g, a, b);
  cnf.add_ternary(~g, ~a, ~b);
  cnf.add_ternary(g, ~a, b);
  cnf.add_ternary(g, a, ~b);
}

// g <-> XOR(fanins), chaining through fresh variables for arity > 2.
void encode_xor(Cnf& cnf, Lit g, const std::vector<Lit>& fanins) {
  Lit acc = fanins[0];
  for (std::size_t i = 1; i < fanins.size(); ++i) {
    const Lit next = (i + 1 == fanins.size())
                         ? g
                         : Lit::positive(cnf.add_var());
    encode_xor2(cnf, next, acc, fanins[i]);
    acc = next;
  }
}

}  // namespace

std::vector<Lit> encode_tseitin(const Circuit& circuit, Cnf& cnf) {
  if (!circuit.is_combinational()) {
    throw std::invalid_argument(
        "encode_tseitin: circuit has latches; unroll it first");
  }
  const std::string problem = circuit.validate();
  if (!problem.empty()) throw std::invalid_argument("encode_tseitin: " + problem);

  std::vector<Lit> lit_of(circuit.num_gates(), undef_lit);
  std::vector<Lit> fanin_lits;
  for (int i = 0; i < circuit.num_gates(); ++i) {
    const Gate& gate = circuit.gate(i);
    const Lit g = Lit::positive(cnf.add_var());
    lit_of[i] = g;

    fanin_lits.clear();
    for (const int f : gate.fanins) fanin_lits.push_back(lit_of[f]);

    switch (gate.kind) {
      case GateKind::input:
        break;  // free variable
      case GateKind::const_zero:
        cnf.add_unit(~g);
        break;
      case GateKind::const_one:
        cnf.add_unit(g);
        break;
      case GateKind::buf:
        cnf.add_binary(~g, fanin_lits[0]);
        cnf.add_binary(g, ~fanin_lits[0]);
        break;
      case GateKind::not_gate:
        cnf.add_binary(~g, ~fanin_lits[0]);
        cnf.add_binary(g, fanin_lits[0]);
        break;
      case GateKind::and_gate:
        encode_and(cnf, g, fanin_lits);
        break;
      case GateKind::nand_gate:
        encode_and(cnf, ~g, fanin_lits);
        break;
      case GateKind::or_gate:
        encode_or(cnf, g, fanin_lits);
        break;
      case GateKind::nor_gate:
        encode_or(cnf, ~g, fanin_lits);
        break;
      case GateKind::xor_gate:
        encode_xor(cnf, g, fanin_lits);
        break;
      case GateKind::xnor_gate:
        encode_xor(cnf, ~g, fanin_lits);
        break;
      case GateKind::latch:
        assert(false && "unreachable: circuit is combinational");
        break;
    }
  }
  return lit_of;
}

}  // namespace berkmin
