// Reference DPLL solver (no learning, chronological backtracking).
//
// Deliberately simple: it exists as an independent oracle for testing the
// CDCL engine, and as the "tree-like resolution" baseline the paper's
// introduction contrasts modern solvers with.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cnf/cnf_formula.h"

namespace berkmin::reference {

struct DpllResult {
  bool satisfiable = false;
  bool completed = true;  // false if the node budget ran out
  std::vector<Value> model;
};

// max_nodes bounds the search-tree size (0 = unlimited).
DpllResult dpll_solve(const Cnf& cnf, std::uint64_t max_nodes = 0);

}  // namespace berkmin::reference
