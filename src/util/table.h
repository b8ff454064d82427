// Plain-text table formatting used by the per-paper-table bench drivers.
#pragma once

#include <string>
#include <vector>

namespace berkmin {

// Collects rows of cells and renders them with aligned columns, in the
// style of the tables in the BerkMin paper.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);

  // Renders the table; column widths fit the widest cell. The first column
  // is left-aligned, all others right-aligned (numeric convention).
  std::string to_string() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

// "12.34" style rendering of seconds with sensible precision.
std::string format_seconds(double seconds);

// Thousands-separated integer rendering ("1,234,567").
std::string format_count(std::uint64_t value);

// "2.40" style rendering of a ratio.
std::string format_ratio(double value);

}  // namespace berkmin
