// SAT encoding of Towers of Hanoi — the paper's Hanoi class (the DIMACS
// hanoi4/hanoi5 instances plus the hanoi6 instance added by the authors).
//
// State-based STRIPS-style encoding: on(d,p,t) says disk d sits on peg p
// at time t; move(d,p,q,t) says disk d moves from peg p to peg q at step
// t. Exactly one move happens per step, a moved disk must be the top of
// its source peg and land on no smaller disk. The instance is satisfiable
// iff num_moves >= 2^num_disks - 1 (the optimum; any surplus can be
// burned with detours).
#pragma once

#include <vector>

#include "cnf/cnf_formula.h"
#include "cnf/literal.h"

namespace berkmin::gen {

struct HanoiMove {
  int disk = 0;
  int from = 0;
  int to = 0;
};

class HanoiEncoding {
 public:
  // Disks are numbered 0 (smallest) .. n-1; pegs 0,1,2. All disks start
  // on peg 0 and must reach peg 2 after exactly num_moves steps.
  HanoiEncoding(int num_disks, int num_moves);

  const Cnf& cnf() const { return cnf_; }
  int num_disks() const { return num_disks_; }
  int num_moves() const { return num_moves_; }

  // The most disks any caller may ask for: every optimal horizon up to it
  // fits an int with room to spare.
  static constexpr int kMaxDisks = 30;
  // 2^num_disks - 1; throws std::invalid_argument outside [0, kMaxDisks].
  static int optimal_moves(int num_disks);

  Var on_var(int disk, int peg, int time) const;
  Var move_var(int disk, int from, int to, int step) const;

  // Extracts the move sequence from a model and checks it is legal;
  // returns an empty vector if the model does not decode to a valid plan.
  std::vector<HanoiMove> decode(const std::vector<Value>& model) const;

 private:
  void build();

  int num_disks_;
  int num_moves_;
  Cnf cnf_;
};

// Convenience: just the formula.
Cnf hanoi_instance(int num_disks, int num_moves);

}  // namespace berkmin::gen
