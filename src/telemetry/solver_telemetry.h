// Solver-facing telemetry sink: the only telemetry header the core solver
// includes. Deliberately light — it forward-declares the hub types so that
// core/solver.h does not pull in the registry/ring machinery, and the
// disabled path (`telemetry_ == nullptr`) costs exactly one branch at each
// instrumentation site.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/solver_types.h"
#include "telemetry/phase.h"

namespace berkmin::telemetry {

class Telemetry;
class Counter;
class Histogram;
class TraceRing;
enum class EventKind : std::uint8_t;

// The cumulative SolverStats values already published to the hub counters.
// Owned by the Solver so that the same hub (and its shared "solver.*"
// counters) aggregates any number of solvers, each flushing deltas at safe
// points (restarts and end of solve) on its own thread.
struct StatsCursor {
  // Indexed like kSolverCounters.
  std::array<std::uint64_t, kNumSolverCounters> counters{};
  // Per-glue-value counts already mirrored into the hub's solver.glue
  // histogram (indexed like SolverStats::glue_histogram).
  std::vector<std::uint64_t> glue_histogram;
};

// Binds a hub (counters + phase profile) and an optional trace ring. One
// sink per producer thread when a ring is attached (the ring is SPSC);
// counter- and phase-only sinks (ring == nullptr) may be shared freely.
struct SolverTelemetry {
  SolverTelemetry() = default;
  // Resolves the shared "solver.*" counters once so the hot path never
  // touches the registry map.
  explicit SolverTelemetry(Telemetry& hub, TraceRing* ring = nullptr);

  Telemetry* hub = nullptr;
  TraceRing* ring = nullptr;
  // Emit a conflict_sample trace event every this many conflicts (0 = off).
  std::uint64_t conflict_sample_interval = 4096;

  // The hub counter "solver.<name>" of each kSolverCounters entry, cached
  // in list order (see publish()).
  std::array<Counter*, kNumSolverCounters> counters{};
  // Learned-clause glue (literal block distance) distribution; fed from
  // SolverStats::glue_histogram deltas at each publish.
  Histogram* h_glue = nullptr;

  std::int64_t now_ns() const;

  // Appends to the ring when one is attached; no-op otherwise. `ts_ns` may
  // lie in the past (events can be emitted after the fact).
  void emit(EventKind kind, std::int64_t ts_ns, std::int64_t dur_ns,
            std::uint64_t a, std::uint64_t b) const;

  void add_phase(Phase phase, std::int64_t start_ns) const;

  // Flushes `stats - *seen` into the hub counters and advances the cursor.
  // Counters are monotone: only growth since the last publish is added.
  void publish(const SolverStats& stats, StatsCursor* seen) const;
};

// RAII phase timer. Reads the clock only when a sink is attached, so a
// disabled scope is a single pointer test on construction and destruction.
class PhaseScope {
 public:
  PhaseScope(const SolverTelemetry* sink, Phase phase) : sink_(sink) {
    if (sink_ != nullptr) {
      phase_ = phase;
      start_ns_ = sink_->now_ns();
    }
  }
  ~PhaseScope() {
    if (sink_ != nullptr) sink_->add_phase(phase_, start_ns_);
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  const SolverTelemetry* sink_;
  Phase phase_ = Phase::bcp;
  std::int64_t start_ns_ = 0;
};

}  // namespace berkmin::telemetry
