#include "gen/hanoi.h"

#include <stdexcept>
#include <string>

namespace berkmin::gen {

HanoiEncoding::HanoiEncoding(int num_disks, int num_moves)
    : num_disks_(num_disks), num_moves_(num_moves) {
  if (num_disks < 1) throw std::invalid_argument("hanoi: need >= 1 disk");
  if (num_moves < 0) throw std::invalid_argument("hanoi: negative horizon");
  build();
}

int HanoiEncoding::optimal_moves(int num_disks) {
  if (num_disks < 0 || num_disks > kMaxDisks) {
    throw std::invalid_argument("hanoi: optimal horizon of " +
                                std::to_string(num_disks) + " disks");
  }
  return (1 << num_disks) - 1;
}

// Variable layout: the on(d,p,t) block first, then the move block.
Var HanoiEncoding::on_var(int disk, int peg, int time) const {
  return (time * num_disks_ + disk) * 3 + peg;
}

Var HanoiEncoding::move_var(int disk, int from, int to, int step) const {
  // Six (from,to) pairs per disk: index = from * 2 + (to > from ? to - 1 : to).
  const int pair = from * 2 + (to > from ? to - 1 : to);
  const int base = (num_moves_ + 1) * num_disks_ * 3;
  return base + (step * num_disks_ + disk) * 6 + pair;
}

void HanoiEncoding::build() {
  const int n = num_disks_;
  const int t_max = num_moves_;
  cnf_ = Cnf((t_max + 1) * n * 3 + t_max * n * 6);

  const auto on = [&](int d, int p, int t) { return Lit::positive(on_var(d, p, t)); };
  const auto mv = [&](int d, int p, int q, int t) {
    return Lit::positive(move_var(d, p, q, t));
  };

  // Initial state: everything on peg 0. Goal: everything on peg 2.
  for (int d = 0; d < n; ++d) {
    cnf_.add_unit(on(d, 0, 0));
    cnf_.add_unit(on(d, 2, t_max));
  }

  // Each disk is on exactly one peg at each time.
  for (int t = 0; t <= t_max; ++t) {
    for (int d = 0; d < n; ++d) {
      cnf_.add_ternary(on(d, 0, t), on(d, 1, t), on(d, 2, t));
      for (int p = 0; p < 3; ++p) {
        for (int q = p + 1; q < 3; ++q) {
          cnf_.add_binary(~on(d, p, t), ~on(d, q, t));
        }
      }
    }
  }

  std::vector<Lit> some_move;
  for (int t = 0; t < t_max; ++t) {
    // Exactly one move per step.
    some_move.clear();
    for (int d = 0; d < n; ++d) {
      for (int p = 0; p < 3; ++p) {
        for (int q = 0; q < 3; ++q) {
          if (p != q) some_move.push_back(mv(d, p, q, t));
        }
      }
    }
    cnf_.add_clause(some_move);
    for (std::size_t i = 0; i < some_move.size(); ++i) {
      for (std::size_t j = i + 1; j < some_move.size(); ++j) {
        cnf_.add_binary(~some_move[i], ~some_move[j]);
      }
    }

    for (int d = 0; d < n; ++d) {
      for (int p = 0; p < 3; ++p) {
        for (int q = 0; q < 3; ++q) {
          if (p == q) continue;
          const Lit m = mv(d, p, q, t);
          // Source and destination of the move.
          cnf_.add_binary(~m, on(d, p, t));
          cnf_.add_binary(~m, on(d, q, t + 1));
          // The moved disk is the top of its source peg, and no smaller
          // disk blocks the destination.
          for (int smaller = 0; smaller < d; ++smaller) {
            cnf_.add_binary(~m, ~on(smaller, p, t));
            cnf_.add_binary(~m, ~on(smaller, q, t));
          }
        }
      }

      // Frame axioms: a disk leaves its peg only by moving away from it,
      // and arrives only by moving onto it.
      for (int p = 0; p < 3; ++p) {
        cnf_.add_literal(~on(d, p, t));
        cnf_.add_literal(on(d, p, t + 1));
        for (int q = 0; q < 3; ++q) {
          if (q != p) cnf_.add_literal(mv(d, p, q, t));
        }
        cnf_.end_clause();
        cnf_.add_literal(on(d, p, t));
        cnf_.add_literal(~on(d, p, t + 1));
        for (int q = 0; q < 3; ++q) {
          if (q != p) cnf_.add_literal(mv(d, q, p, t));
        }
        cnf_.end_clause();
      }
    }
  }
}

std::vector<HanoiMove> HanoiEncoding::decode(const std::vector<Value>& model) const {
  std::vector<HanoiMove> plan;
  // Reconstruct and validate the plan against actual game rules.
  std::vector<int> peg_of(num_disks_, 0);
  for (int t = 0; t < num_moves_; ++t) {
    int found = 0;
    HanoiMove move;
    for (int d = 0; d < num_disks_; ++d) {
      for (int p = 0; p < 3; ++p) {
        for (int q = 0; q < 3; ++q) {
          if (p == q) continue;
          if (model[move_var(d, p, q, t)] == Value::true_value) {
            ++found;
            move = HanoiMove{d, p, q};
          }
        }
      }
    }
    if (found != 1) return {};
    // Legality: source correct, disk is top of source, lands on no smaller.
    if (peg_of[move.disk] != move.from) return {};
    for (int smaller = 0; smaller < move.disk; ++smaller) {
      if (peg_of[smaller] == move.from || peg_of[smaller] == move.to) return {};
    }
    peg_of[move.disk] = move.to;
    plan.push_back(move);
  }
  for (int d = 0; d < num_disks_; ++d) {
    if (peg_of[d] != 2) return {};
  }
  return plan;
}

Cnf hanoi_instance(int num_disks, int num_moves) {
  return HanoiEncoding(num_disks, num_moves).cnf();
}

}  // namespace berkmin::gen
