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

}  // namespace berkmin
