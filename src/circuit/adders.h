// Arithmetic circuit constructions: the building blocks of the paper's
// Beijing-like (adder logic) and pipelined-datapath benchmark families.
//
// All builders produce combinational circuits with the input convention
// a[0..w-1], b[0..w-1] (LSB first; plus carry-in where noted) and the sum
// outputs s[0..w-1] followed by carry-out.
#pragma once

#include "circuit/circuit.h"

namespace berkmin {

// Classic ripple-carry adder: w full adders chained through the carry.
Circuit ripple_carry_adder(int width);

// Carry-select adder: blocks of `block` bits computed twice (carry 0/1),
// the real carry selecting between them. Structurally very different from
// ripple-carry while computing the same function.
Circuit carry_select_adder(int width, int block = 2);

// Carry-lookahead-style adder: generate/propagate terms with carries
// expanded as unrolled lookahead logic.
Circuit carry_lookahead_adder(int width);

// --- in-place builders (used by the pipelined-datapath generator) --------

// Appends a ripple-carry sum of the signals in a/b (LSB first) to `c`;
// cin may be -1 for constant 0. Returns the sum bits followed by carry-out.
std::vector<int> append_ripple_sum(Circuit& c, const std::vector<int>& a,
                                   const std::vector<int>& b, int cin);

// Appends a word-level ALU over existing signals: two w-bit operands a, b
// and a 2-bit opcode (op1 op0): 00 -> add (mod 2^w), 01 -> and, 10 -> or,
// 11 -> xor. Returns the w result bits. `use_fast_adder` switches the
// internal adder implementation, giving two structurally different but
// equivalent ALUs.
std::vector<int> append_alu(Circuit& c, const std::vector<int>& a,
                            const std::vector<int>& b, int op0, int op1,
                            bool use_fast_adder);

}  // namespace berkmin
