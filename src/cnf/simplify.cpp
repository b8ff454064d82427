#include "cnf/simplify.h"

#include <algorithm>

namespace berkmin {

bool normalize_clause(std::vector<Lit>& lits) {
  std::sort(lits.begin(), lits.end());
  lits.erase(std::unique(lits.begin(), lits.end()), lits.end());
  for (std::size_t i = 1; i < lits.size(); ++i) {
    if (lits[i].var() == lits[i - 1].var()) return false;  // l and ~l
  }
  return true;
}

SimplifyResult simplify(const Cnf& cnf) {
  SimplifyResult result;
  std::vector<Value> assignment(cnf.num_vars(), Value::unassigned);

  auto assign = [&](Lit l) -> bool {
    const Value desired = to_value(l.is_positive());
    Value& slot = assignment[l.var()];
    if (slot == Value::unassigned) {
      slot = desired;
      result.root_units.push_back(l);
      return true;
    }
    return slot == desired;
  };

  // Working set of normalized clauses; repeatedly sweep until no new units.
  std::vector<std::vector<Lit>> pending;
  pending.reserve(cnf.num_clauses());
  for (const auto& raw : cnf.clauses()) {
    std::vector<Lit> normalized = raw;
    if (!normalize_clause(normalized)) continue;  // tautology
    if (normalized.empty()) {
      result.unsat = true;
      result.cnf = Cnf(cnf.num_vars());
      result.cnf.add_clause(std::vector<Lit>{});
      return result;
    }
    pending.push_back(std::move(normalized));
  }

  bool changed = true;
  while (changed && !result.unsat) {
    changed = false;
    std::vector<std::vector<Lit>> next;
    next.reserve(pending.size());
    for (auto& clause : pending) {
      std::vector<Lit> reduced;
      reduced.reserve(clause.size());
      bool satisfied = false;
      for (const Lit l : clause) {
        const Value v = value_of_literal(assignment[l.var()], l);
        if (v == Value::true_value) {
          satisfied = true;
          break;
        }
        if (v == Value::unassigned) reduced.push_back(l);
      }
      if (satisfied) {
        changed = true;
        continue;
      }
      if (reduced.empty()) {
        result.unsat = true;
        break;
      }
      if (reduced.size() == 1) {
        if (!assign(reduced[0])) {
          result.unsat = true;
          break;
        }
        changed = true;
        continue;
      }
      if (reduced.size() != clause.size()) changed = true;
      next.push_back(std::move(reduced));
    }
    pending = std::move(next);
  }

  result.cnf = Cnf(cnf.num_vars());
  if (result.unsat) {
    result.cnf.add_clause(std::vector<Lit>{});
    return result;
  }
  for (auto& clause : pending) result.cnf.add_clause(std::move(clause));
  return result;
}

}  // namespace berkmin
