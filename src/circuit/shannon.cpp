#include "circuit/shannon.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <vector>

namespace berkmin {
namespace {

// Builds the reduced mux tree for one truth table. Sharing is maximal:
// identical cofactor tables map to one gate (an ROBDD in gate form).
class ShannonBuilder {
 public:
  ShannonBuilder(Circuit& out, const std::vector<int>& inputs)
      : out_(out), inputs_(inputs) {
    const_zero_ = out_.add_const(false);
    const_one_ = out_.add_const(true);
  }

  // table has 2^k entries for the remaining k = inputs_.size() - depth
  // variables; entry i is the value with input bit j = ((i >> j) & 1).
  int build(const std::vector<bool>& table, int depth) {
    bool all_zero = true;
    bool all_one = true;
    for (const bool v : table) {
      all_zero = all_zero && !v;
      all_one = all_one && v;
    }
    if (all_zero) return const_zero_;
    if (all_one) return const_one_;

    const auto memo = cache_.find(table);
    if (memo != cache_.end()) return memo->second;

    // Split on the current variable: low half = variable 0.
    const std::size_t half = table.size() / 2;
    std::vector<bool> low(half);
    std::vector<bool> high(half);
    for (std::size_t i = 0; i < half; ++i) {
      // Bit 0 of the index is the *current* variable.
      low[i] = table[2 * i];
      high[i] = table[2 * i + 1];
    }
    const int low_gate = build(low, depth + 1);
    const int high_gate = build(high, depth + 1);

    const int select = inputs_[depth];
    int gate;
    if (low_gate == high_gate) {
      gate = low_gate;
    } else {
      // mux(select, low, high)
      const int take_high = out_.add_and(select, high_gate);
      const int take_low = out_.add_and(out_.add_not(select), low_gate);
      gate = out_.add_or(take_low, take_high);
    }
    cache_.emplace(table, gate);
    return gate;
  }

 private:
  Circuit& out_;
  const std::vector<int>& inputs_;
  int const_zero_ = -1;
  int const_one_ = -1;
  std::map<std::vector<bool>, int> cache_;
};

}  // namespace

Circuit shannon_canonical(const Circuit& source, int max_inputs) {
  if (!source.is_combinational()) {
    throw std::invalid_argument("shannon_canonical: combinational only");
  }
  const int n = source.num_inputs();
  if (n > max_inputs) {
    throw std::invalid_argument("shannon_canonical: too many inputs");
  }

  // Exhaustive simulation, 64 rows a pass: per-output truth tables indexed
  // so that input bit j of vector i is ((i >> j) & 1) — matching
  // ShannonBuilder's bit-0-first cofactor split.
  const std::size_t rows = std::size_t{1} << n;
  std::vector<std::vector<bool>> tables(
      source.num_outputs(), std::vector<bool>(rows, false));
  std::vector<std::uint64_t> words(static_cast<std::size_t>(n));
  std::vector<std::uint64_t> values(static_cast<std::size_t>(source.num_gates()));
  for (std::size_t base = 0; base < rows; base += 64) {
    for (int j = 0; j < n; ++j) words[j] = counting_word(j, base);
    source.evaluate_lanes(words, {}, values);
    const std::size_t lanes = std::min<std::size_t>(64, rows - base);
    for (int o = 0; o < source.num_outputs(); ++o) {
      const std::uint64_t word = values[source.outputs()[o]];
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        tables[o][base + lane] = ((word >> lane) & 1) != 0;
      }
    }
  }

  Circuit result;
  std::vector<int> inputs;
  for (int i = 0; i < n; ++i) inputs.push_back(result.add_input());
  ShannonBuilder builder(result, inputs);
  for (const auto& table : tables) {
    result.mark_output(builder.build(table, 0));
  }
  return result;
}

}  // namespace berkmin
