#include "gen/blocksworld.h"

#include <stdexcept>

#include "util/rng.h"

namespace berkmin::gen {
namespace {

// A random stacking of B blocks: every block is on the table or on a
// unique supporting block, with no cycles.
std::vector<int> random_state(int num_blocks, Rng& rng) {
  // Build by dealing blocks one at a time onto the table or a stack top.
  std::vector<int> below(num_blocks, num_blocks);  // num_blocks == table
  std::vector<int> tops;
  std::vector<int> order(num_blocks);
  for (int b = 0; b < num_blocks; ++b) order[b] = b;
  std::vector<int> shuffled = order;
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.below(i)]);
  }
  for (const int b : shuffled) {
    if (!tops.empty() && rng.chance(0.6)) {
      const std::size_t pick = rng.below(tops.size());
      below[b] = tops[pick];
      tops[pick] = b;  // b becomes the new top of that stack
    } else {
      tops.push_back(b);
    }
  }
  return below;
}

// Applies `steps` random legal moves to `below`, returning the new state.
std::vector<int> walk_state(std::vector<int> below, int steps, Rng& rng) {
  const int num_blocks = static_cast<int>(below.size());
  for (int s = 0; s < steps; ++s) {
    // A block is clear when nothing is on it.
    std::vector<bool> clear(num_blocks, true);
    for (int b = 0; b < num_blocks; ++b) {
      if (below[b] != num_blocks) clear[below[b]] = false;
    }
    std::vector<int> movable;
    for (int b = 0; b < num_blocks; ++b) {
      if (clear[b]) movable.push_back(b);
    }
    if (movable.empty()) break;
    const int mover = movable[rng.below(movable.size())];
    // Destination: the table or another clear block.
    std::vector<int> destinations{num_blocks};
    for (const int d : movable) {
      if (d != mover) destinations.push_back(d);
    }
    below[mover] = destinations[rng.below(destinations.size())];
  }
  return below;
}

int count_misplaced(const std::vector<int>& from, const std::vector<int>& to) {
  int misplaced = 0;
  for (std::size_t b = 0; b < from.size(); ++b) {
    if (from[b] != to[b]) ++misplaced;
  }
  return misplaced;
}

}  // namespace

BlocksworldEncoding::BlocksworldEncoding(const BlocksworldParams& params)
    : params_(params) {
  if (params.num_blocks < 2) throw std::invalid_argument("blocksworld: >= 2 blocks");
  if (params.horizon < 0) throw std::invalid_argument("blocksworld: bad horizon");
  generate_states(params.seed, params.satisfiable);
  build();
}

void BlocksworldEncoding::generate_states(std::uint64_t seed, bool satisfiable) {
  Rng rng(seed);
  initial_below_ = random_state(params_.num_blocks, rng);
  if (satisfiable) {
    // A goal reachable within the horizon: walk at most `horizon` moves.
    const int steps = static_cast<int>(
        rng.range(1, std::max(1, params_.horizon)));
    goal_below_ = walk_state(initial_below_, steps, rng);
  } else {
    // Every misplaced block needs at least one move and each step moves
    // at most one block, so misplaced > horizon is a sound lower bound.
    for (int attempt = 0; attempt < 256; ++attempt) {
      goal_below_ = walk_state(initial_below_, 4 * params_.num_blocks, rng);
      if (count_misplaced(initial_below_, goal_below_) > params_.horizon) return;
    }
    // Deterministic fallback: rotate every block onto a different support.
    // (Only reachable when the horizon is very generous; callers pick
    // horizons below num_blocks for unsat instances.)
    goal_below_.assign(params_.num_blocks, params_.num_blocks);
    for (int b = 0; b < params_.num_blocks; ++b) {
      goal_below_[b] = (b + 1) % params_.num_blocks;
    }
    // A cyclic "tower" is unreachable outright, guaranteeing unsat.
  }
}

Var BlocksworldEncoding::on_var(int block, int dest, int time) const {
  const int dests = params_.num_blocks + 1;
  return (time * params_.num_blocks + block) * dests + dest;
}

Var BlocksworldEncoding::move_var(int block, int dest, int step) const {
  const int b = params_.num_blocks;
  const int dests = b + 1;
  const int state_vars = (params_.horizon + 1) * b * dests;
  return state_vars + (step * b + block) * dests + dest;
}

Var BlocksworldEncoding::noop_var(int step) const {
  const int b = params_.num_blocks;
  const int dests = b + 1;
  const int state_vars = (params_.horizon + 1) * b * dests;
  const int move_vars = params_.horizon * b * dests;
  return state_vars + move_vars + step;
}

void BlocksworldEncoding::build() {
  const int b = params_.num_blocks;
  const int table = b;
  const int dests = b + 1;
  const int t_max = params_.horizon;
  cnf_ = Cnf((t_max + 1) * b * dests + t_max * b * dests + t_max);

  const auto on = [&](int x, int y, int t) { return Lit::positive(on_var(x, y, t)); };
  const auto mv = [&](int x, int y, int t) { return Lit::positive(move_var(x, y, t)); };

  // Initial and goal states as unit clauses.
  for (int x = 0; x < b; ++x) {
    cnf_.add_unit(on(x, initial_below_[x], 0));
    cnf_.add_unit(on(x, goal_below_[x], t_max));
  }

  for (int t = 0; t <= t_max; ++t) {
    for (int x = 0; x < b; ++x) {
      // x sits exactly on one support (or the table); never on itself.
      cnf_.add_unit(~on(x, x, t));
      for (int y = 0; y < dests; ++y) {
        if (y != x) cnf_.add_literal(on(x, y, t));
      }
      cnf_.end_clause();
      for (int y1 = 0; y1 < dests; ++y1) {
        for (int y2 = y1 + 1; y2 < dests; ++y2) {
          if (y1 != x && y2 != x) cnf_.add_binary(~on(x, y1, t), ~on(x, y2, t));
        }
      }
    }
    // No two blocks on the same supporting block.
    for (int y = 0; y < b; ++y) {
      for (int x1 = 0; x1 < b; ++x1) {
        for (int x2 = x1 + 1; x2 < b; ++x2) {
          if (x1 == y || x2 == y) continue;
          cnf_.add_binary(~on(x1, y, t), ~on(x2, y, t));
        }
      }
    }
  }

  std::vector<Lit> actions;
  for (int t = 0; t < t_max; ++t) {
    // Exactly one action (some move, or the explicit no-op).
    actions.assign(1, Lit::positive(noop_var(t)));
    for (int x = 0; x < b; ++x) {
      for (int y = 0; y < dests; ++y) {
        if (y != x) actions.push_back(mv(x, y, t));
      }
    }
    cnf_.add_clause(actions);
    for (std::size_t i = 0; i < actions.size(); ++i) {
      for (std::size_t j = i + 1; j < actions.size(); ++j) {
        cnf_.add_binary(~actions[i], ~actions[j]);
      }
    }

    for (int x = 0; x < b; ++x) {
      for (int y = 0; y < dests; ++y) {
        if (y == x) continue;
        const Lit m = mv(x, y, t);
        // Effects.
        cnf_.add_binary(~m, on(x, y, t + 1));
        // Preconditions: x clear; destination block clear.
        for (int z = 0; z < b; ++z) {
          if (z == x) continue;
          cnf_.add_binary(~m, ~on(z, x, t));          // nothing on x
          if (y != table && z != y) {
            cnf_.add_binary(~m, ~on(z, y, t));        // nothing on y
          }
        }
      }

      // Frame axioms: support changes only through a move of x.
      for (int y = 0; y < dests; ++y) {
        if (y == x) continue;
        cnf_.add_literal(~on(x, y, t));
        cnf_.add_literal(on(x, y, t + 1));
        for (int z = 0; z < dests; ++z) {
          if (z != x && z != y) cnf_.add_literal(mv(x, z, t));
        }
        cnf_.end_clause();
        cnf_.add_ternary(on(x, y, t), ~on(x, y, t + 1), mv(x, y, t));
      }
    }
  }
}

Cnf blocksworld_instance(const BlocksworldParams& params) {
  return BlocksworldEncoding(params).cnf();
}

}  // namespace berkmin::gen
