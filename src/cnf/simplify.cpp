#include "cnf/simplify.h"

#include <algorithm>

namespace berkmin {

std::size_t normalize_clause(std::span<Lit> lits) {
  const std::size_t n = lits.size();
  if (n <= 4) {
    for (std::size_t i = 1; i < n; ++i) {
      const Lit l = lits[i];
      std::size_t j = i;
      for (; j > 0 && l < lits[j - 1]; --j) lits[j] = lits[j - 1];
      lits[j] = l;
    }
  } else {
    std::sort(lits.begin(), lits.end());
  }
  // Sorted by code, a duplicate follows its twin and ~l follows l.
  std::size_t kept = n == 0 ? 0 : 1;
  for (std::size_t i = 1; i < n; ++i) {
    if (lits[i] == lits[kept - 1]) continue;
    if (lits[i].var() == lits[kept - 1].var()) return tautology;
    lits[kept++] = lits[i];
  }
  return kept;
}

bool normalize_clause(std::vector<Lit>& lits) {
  const std::size_t kept = normalize_clause(std::span<Lit>(lits));
  if (kept == tautology) return false;
  lits.resize(kept);
  return true;
}

}  // namespace berkmin
