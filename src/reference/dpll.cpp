#include "reference/dpll.h"

#include "cnf/simplify.h"

namespace berkmin::reference {
namespace {

class Dpll {
 public:
  Dpll(const Cnf& cnf, std::uint64_t max_nodes)
      : clauses_(), assign_(cnf.num_vars(), Value::unassigned), max_nodes_(max_nodes) {
    for (const auto clause : cnf.clauses()) {
      std::vector<Lit> normalized(clause.begin(), clause.end());
      if (normalize_clause(normalized)) clauses_.push_back(std::move(normalized));
    }
  }

  DpllResult run() {
    DpllResult result;
    result.satisfiable = search();
    result.completed = !out_of_budget_;
    if (result.satisfiable) result.model = assign_;
    return result;
  }

 private:
  enum class ClauseState { satisfied, falsified, unit, open };

  ClauseState classify(const std::vector<Lit>& clause, Lit* unit) const {
    int free_count = 0;
    for (const Lit l : clause) {
      const Value v = value_of_literal(assign_[l.var()], l);
      if (v == Value::true_value) return ClauseState::satisfied;
      if (v == Value::unassigned) {
        ++free_count;
        *unit = l;
        if (free_count > 1) return ClauseState::open;
      }
    }
    if (free_count == 0) return ClauseState::falsified;
    return ClauseState::unit;
  }

  // Propagates units to a fixed point; records assignments in `undo`.
  // Returns false on conflict.
  bool propagate(std::vector<Var>& undo) {
    bool changed = true;
    while (changed) {
      changed = false;
      for (const auto& clause : clauses_) {
        Lit unit = undef_lit;
        switch (classify(clause, &unit)) {
          case ClauseState::falsified:
            return false;
          case ClauseState::unit:
            assign_[unit.var()] = to_value(unit.is_positive());
            undo.push_back(unit.var());
            changed = true;
            break;
          case ClauseState::satisfied:
          case ClauseState::open:
            break;
        }
      }
    }
    return true;
  }

  Var pick_free_var() const {
    for (Var v = 0; v < static_cast<Var>(assign_.size()); ++v) {
      if (assign_[v] == Value::unassigned) return v;
    }
    return no_var;
  }

  bool search() {
    if (max_nodes_ && nodes_ >= max_nodes_) {
      out_of_budget_ = true;
      return false;
    }
    ++nodes_;

    std::vector<Var> undo;
    if (!propagate(undo)) {
      for (const Var v : undo) assign_[v] = Value::unassigned;
      return false;
    }

    const Var v = pick_free_var();
    if (v == no_var) return true;  // every clause satisfied

    for (const Value value : {Value::false_value, Value::true_value}) {
      assign_[v] = value;
      if (search()) return true;
      assign_[v] = Value::unassigned;
      if (out_of_budget_) break;
    }

    for (const Var undone : undo) assign_[undone] = Value::unassigned;
    return false;
  }

  std::vector<std::vector<Lit>> clauses_;
  std::vector<Value> assign_;
  std::uint64_t max_nodes_ = 0;
  std::uint64_t nodes_ = 0;
  bool out_of_budget_ = false;
};

}  // namespace

DpllResult dpll_solve(const Cnf& cnf, std::uint64_t max_nodes) {
  // An empty clause anywhere makes the formula trivially unsatisfiable.
  for (const auto clause : cnf.clauses()) {
    if (clause.empty()) {
      DpllResult result;
      result.satisfiable = false;
      return result;
    }
  }
  return Dpll(cnf, max_nodes).run();
}

}  // namespace berkmin::reference
