#include "gen/pigeonhole.h"

#include <stdexcept>

namespace berkmin::gen {

Cnf pigeonhole(int holes) {
  if (holes < 1) throw std::invalid_argument("pigeonhole: holes must be >= 1");
  const int pigeons = holes + 1;
  Cnf cnf(pigeons * holes);

  const auto var_of = [holes](int pigeon, int hole) -> Var {
    return pigeon * holes + hole;
  };

  // Each pigeon sits in some hole.
  for (int p = 0; p < pigeons; ++p) {
    for (int h = 0; h < holes; ++h) cnf.add_literal(Lit::positive(var_of(p, h)));
    cnf.end_clause();
  }

  // No two pigeons share a hole.
  for (int h = 0; h < holes; ++h) {
    for (int p = 0; p < pigeons; ++p) {
      for (int q = p + 1; q < pigeons; ++q) {
        cnf.add_binary(Lit::negative(var_of(p, h)), Lit::negative(var_of(q, h)));
      }
    }
  }
  return cnf;
}

}  // namespace berkmin::gen
