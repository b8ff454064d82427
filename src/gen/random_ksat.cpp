#include "gen/random_ksat.h"

#include <stdexcept>

#include "util/rng.h"

namespace berkmin::gen {

Cnf random_ksat(int num_vars, int num_clauses, int k, std::uint64_t seed) {
  if (k < 1 || k > num_vars) {
    throw std::invalid_argument("random_ksat: need 1 <= k <= num_vars");
  }
  Rng rng(seed);
  Cnf cnf(num_vars);
  for (int c = 0; c < num_clauses; ++c) {
    for (const std::size_t v : rng.sample(static_cast<std::size_t>(num_vars),
                                          static_cast<std::size_t>(k))) {
      cnf.add_literal(Lit(static_cast<Var>(v), rng.coin()));
    }
    cnf.end_clause();
  }
  return cnf;
}

}  // namespace berkmin::gen
