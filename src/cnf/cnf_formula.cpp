#include "cnf/cnf_formula.h"

namespace berkmin {

bool Cnf::is_satisfied_by(const std::vector<Value>& assignment) const {
  for (const auto clause : clauses()) {
    bool satisfied = false;
    for (const Lit l : clause) {
      const Value v = l.var() < static_cast<Var>(assignment.size())
                          ? assignment[l.var()]
                          : Value::unassigned;
      if (value_of_literal(v, l) == Value::true_value) {
        satisfied = true;
        break;
      }
    }
    if (!satisfied) return false;
  }
  return true;
}

}  // namespace berkmin
