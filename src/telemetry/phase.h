// Phase profiling: where wall-time goes inside a solve.
//
// A Phase names a coarse region of solver work; PhaseAccumulator keeps a
// lock-free (calls, nanoseconds) pair per phase, written via relaxed
// atomic adds by any thread and readable concurrently. Scoped timing is
// done by telemetry::PhaseScope (solver_telemetry.h), which reads the
// clock only when a sink is attached.
//
// Nesting: bcp / analyze / decide are disjoint slices of the search loop;
// reduce runs inside the restart path and *includes* any nested
// garbage_collect time (gc is also accounted separately).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

namespace berkmin::telemetry {

enum class Phase : std::uint8_t {
  bcp,
  analyze,
  decide,
  reduce,
  garbage_collect,
  inprocess,  // restart-time simplification passes (core/inprocess.*)
  verify,     // proof checker forward RUP pass
  trim,       // proof checker backward trim/core pass
};

inline constexpr std::size_t kNumPhases = 8;
static_assert(kNumPhases == static_cast<std::size_t>(Phase::trim) + 1,
              "kNumPhases must count every Phase");

const char* to_string(Phase phase);

class PhaseAccumulator {
 public:
  struct Totals {
    std::uint64_t calls = 0;
    std::uint64_t ns = 0;
  };

  void add(Phase phase, std::uint64_t ns) {
    Cell& cell = cells_[static_cast<std::size_t>(phase)];
    cell.calls.fetch_add(1, std::memory_order_relaxed);
    cell.ns.fetch_add(ns, std::memory_order_relaxed);
  }

  Totals totals(Phase phase) const {
    const Cell& cell = cells_[static_cast<std::size_t>(phase)];
    return {cell.calls.load(std::memory_order_relaxed),
            cell.ns.load(std::memory_order_relaxed)};
  }

 private:
  struct Cell {
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> ns{0};
  };
  std::array<Cell, kNumPhases> cells_{};
};

}  // namespace berkmin::telemetry
