// A CNF formula as a plain container of clauses.
//
// This is the interchange type between generators, DIMACS I/O and the
// solvers; the CDCL engine compiles it into its own arena representation.
//
// Layout: every literal of every clause sits in one array, in clause
// order, and a second array holds each clause's end offset into it. A
// clause costs its literals plus one offset; adding one allocates nothing
// beyond the two arrays' geometric growth. clause(i) is a span over the
// literal array, so it is invalidated by the next add_clause() or
// add_literal() (the array may move): copy it out first when a producer
// reads a clause back while still adding.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <ranges>
#include <span>
#include <string>
#include <vector>

#include "cnf/literal.h"

namespace berkmin {

// Clause views compare by content, with each other and (through the
// implicit conversion) with std::vector<Lit>.
inline bool operator==(std::span<const Lit> a, std::span<const Lit> b) {
  return std::ranges::equal(a, b);
}

class Cnf {
 public:
  Cnf() = default;
  explicit Cnf(int num_vars) : num_vars_(num_vars) {}

  Var add_var() { return num_vars_++; }

  // Reserves n fresh variables and returns the first of them.
  Var add_vars(int n) {
    const Var first = num_vars_;
    num_vars_ += n;
    return first;
  }

  // Clauses are stored verbatim (no deduplication or tautology removal);
  // normalization is the job of cnf/simplify.h and of the solvers.
  // Referencing a variable beyond num_vars() grows the variable count.
  void add_clause(std::span<const Lit> lits) {
    assert(lits_.size() == num_literals() && "a clause is open");
    for (const Lit l : lits) add_literal(l);
    end_clause();
  }
  void add_clause(std::initializer_list<Lit> lits) {
    add_clause(std::span<const Lit>(lits.begin(), lits.size()));
  }

  // Convenience for unit/binary/ternary clauses.
  void add_unit(Lit a) { add_clause({a}); }
  void add_binary(Lit a, Lit b) { add_clause({a, b}); }
  void add_ternary(Lit a, Lit b, Lit c) { add_clause({a, b, c}); }

  // Writes a clause in place, literal by literal: add_literal() appends to
  // the open clause and end_clause() closes it (an empty open clause
  // closes as the empty clause). Every accessor below sees closed clauses
  // only, and add_clause() must not be called while a clause is open.
  void add_literal(Lit l) {
    if (l.var() >= num_vars_) num_vars_ = l.var() + 1;
    lits_.push_back(l);
  }
  void end_clause() { ends_.push_back(lits_.size()); }

  int num_vars() const { return num_vars_; }
  std::size_t num_clauses() const { return ends_.size(); }
  std::size_t num_literals() const { return ends_.empty() ? 0 : ends_.back(); }

  std::span<const Lit> clause(std::size_t i) const {
    const std::size_t begin = i == 0 ? 0 : ends_[i - 1];
    return {lits_.data() + begin, ends_[i] - begin};
  }
  // Every clause, in order, as spans (same invalidation rule as clause()).
  auto clauses() const {
    return std::views::iota(std::size_t{0}, num_clauses()) |
           std::views::transform([this](std::size_t i) { return clause(i); });
  }

  // True iff `assignment` (indexed by variable) satisfies every clause.
  // Unassigned variables satisfy nothing.
  bool is_satisfied_by(const std::vector<Value>& assignment) const;

 private:
  int num_vars_ = 0;
  std::vector<Lit> lits_;
  std::vector<std::size_t> ends_;
};

}  // namespace berkmin
