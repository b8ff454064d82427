// SATPLAN-style blocks-world instances — the paper's Blocksworld class.
//
// Classic STRIPS encoding: on(x,y,t) places block x on block y or the
// table; one action per step moves a clear block onto the table or onto
// another clear block (a no-op action pads plans shorter than the
// horizon). Instances are generated with a known plan (satisfiable) or
// with a horizon strictly below the misplaced-block lower bound
// (unsatisfiable).
#pragma once

#include <cstdint>
#include <vector>

#include "cnf/cnf_formula.h"

namespace berkmin::gen {

struct BlocksworldParams {
  int num_blocks = 5;
  int horizon = 8;
  bool satisfiable = true;
  std::uint64_t seed = 0;
};

class BlocksworldEncoding {
 public:
  explicit BlocksworldEncoding(const BlocksworldParams& params);

  const Cnf& cnf() const { return cnf_; }

  Var on_var(int block, int dest, int time) const;   // dest == num_blocks => table
  Var move_var(int block, int dest, int step) const; // likewise
  Var noop_var(int step) const;

 private:
  void build();
  void generate_states(std::uint64_t seed, bool satisfiable);

  BlocksworldParams params_;
  std::vector<int> initial_below_;  // value num_blocks = table
  std::vector<int> goal_below_;
  Cnf cnf_;
};

Cnf blocksworld_instance(const BlocksworldParams& params);

}  // namespace berkmin::gen
