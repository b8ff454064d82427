// Process-wide memory budget + graceful-degradation ladder.
//
// Large allocations in the solver stack (clause arenas, watcher pools,
// the portfolio clause exchange) charge/release bytes against one
// shared MemoryBudget. The budget never blocks an allocation itself —
// instead it reports a Pressure tier that each layer maps to its own
// degradation response:
//
//   none      (< soft)       — business as usual
//   soft      (≥ 70% limit)  — solvers reduce learned DBs aggressively
//                              (keep only the glue-core tier)
//   hard      (≥ 85% limit)  — inprocessing disabled, exchange admission
//                              closed
//   critical  (≥ 95% limit)  — learned-clause storage denied (solvers
//                              fall back to sound no-learn restarts),
//                              service refuses new jobs/sessions with a
//                              structured `unsupported` error
//
// try_reserve() is the hard gate used where an allocation can be
// declined outright (learned clauses, exchange entries); charge() is
// the bookkeeping call for allocations that must proceed (original
// clauses of an admitted job).
//
// Telemetry: attach_telemetry() publishes the `memory_budget_bytes`
// gauge and the `degrade_events` counter (rendered by the Prometheus
// exposition as berkmin_memory_budget_bytes and
// berkmin_degrade_events_total).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace berkmin::telemetry {
class Counter;
class Gauge;
}

namespace berkmin::util {

enum class Pressure : std::uint8_t { none, soft, hard, critical };

class MemoryBudget {
 public:
  // limit_bytes == 0 means unlimited (pressure is always `none`, every
  // reservation succeeds) so callers can hold an always-valid pointer.
  explicit MemoryBudget(std::uint64_t limit_bytes = 0)
      : limit_(limit_bytes) {}

  std::uint64_t limit() const { return limit_; }
  std::uint64_t used() const { return used_.load(std::memory_order_relaxed); }

  // Unconditional bookkeeping for allocations that already happened.
  void charge(std::uint64_t bytes) {
    used_.fetch_add(bytes, std::memory_order_relaxed);
    publish();
  }
  void release(std::uint64_t bytes) {
    used_.fetch_sub(bytes, std::memory_order_relaxed);
    publish();
  }

  // Hard gate: charge `bytes` unless doing so would exceed the limit.
  // Returns false (and charges nothing) on denial.
  bool try_reserve(std::uint64_t bytes) {
    if (limit_ == 0) {
      used_.fetch_add(bytes, std::memory_order_relaxed);
      publish();
      return true;
    }
    std::uint64_t cur = used_.load(std::memory_order_relaxed);
    do {
      if (cur + bytes > limit_) return false;
    } while (!used_.compare_exchange_weak(cur, cur + bytes,
                                          std::memory_order_relaxed));
    publish();
    return true;
  }

  Pressure pressure() const {
    if (limit_ == 0) return Pressure::none;
    const std::uint64_t u = used_.load(std::memory_order_relaxed);
    if (u >= limit_ - limit_ / 20) return Pressure::critical;  // ≥95%
    if (u >= limit_ - limit_ * 3 / 20) return Pressure::hard;  // ≥85%
    if (u >= limit_ * 7 / 10) return Pressure::soft;           // ≥70%
    return Pressure::none;
  }

  // Record one degradation decision (tier shrink, inprocessing off,
  // refused session, no-learn restart). Purely observational.
  void note_degrade() {
    degrades_.fetch_add(1, std::memory_order_relaxed);
    if (degrade_counter_) counter_add(degrade_counter_);
  }
  std::uint64_t degrade_events() const {
    return degrades_.load(std::memory_order_relaxed);
  }

  // Wire the budget gauge + degrade counter into a metrics registry.
  void attach_telemetry(telemetry::Gauge* used_gauge,
                        telemetry::Counter* degrade_counter) {
    used_gauge_ = used_gauge;
    degrade_counter_ = degrade_counter;
    publish();
  }

 private:
  void publish();
  static void counter_add(telemetry::Counter* c);

  const std::uint64_t limit_;
  std::atomic<std::uint64_t> used_{0};
  std::atomic<std::uint64_t> degrades_{0};
  telemetry::Gauge* used_gauge_ = nullptr;
  telemetry::Counter* degrade_counter_ = nullptr;
};

// Parse a human-friendly size string ("64M", "1G", "500k", "1048576")
// into bytes; returns false on malformed input. Used by the CLIs'
// --memory-budget flag.
bool parse_size_bytes(const std::string& text, std::uint64_t* out);

}  // namespace berkmin::util
