#include "cnf/cnf_stats.h"

#include <cstdio>

namespace berkmin {

CnfStats compute_stats(const Cnf& cnf) {
  CnfStats stats;
  stats.num_vars = cnf.num_vars();
  stats.num_clauses = cnf.num_clauses();

  std::size_t positive = 0;
  for (const auto clause : cnf.clauses()) {
    const std::size_t len = clause.size();
    stats.num_literals += len;
    if (len == 1) ++stats.num_units;
    if (len == 2) ++stats.num_binary;
    if (len == 3) ++stats.num_ternary;
    if (len > stats.max_clause_length) stats.max_clause_length = len;
    if (stats.length_histogram.size() <= len) {
      stats.length_histogram.resize(len + 1, 0);
    }
    ++stats.length_histogram[len];

    std::size_t clause_positive = 0;
    for (const Lit l : clause) {
      if (l.is_positive()) ++clause_positive;
    }
    positive += clause_positive;
    if (clause_positive <= 1) ++stats.num_horn;
  }
  if (stats.num_clauses > 0) {
    stats.mean_clause_length =
        static_cast<double>(stats.num_literals) /
        static_cast<double>(stats.num_clauses);
  }
  if (stats.num_literals > 0) {
    stats.positive_literal_fraction =
        static_cast<double>(positive) / static_cast<double>(stats.num_literals);
  }
  return stats;
}

std::string CnfStats::summary() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%d vars, %zu clauses (%zu unit, %zu binary, %zu ternary), "
                "mean len %.2f, max len %zu, %.0f%% horn",
                num_vars, num_clauses, num_units, num_binary, num_ternary,
                mean_clause_length, max_clause_length,
                num_clauses ? 100.0 * static_cast<double>(num_horn) /
                                  static_cast<double>(num_clauses)
                            : 0.0);
  return buf;
}

}  // namespace berkmin
