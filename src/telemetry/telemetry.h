// The telemetry hub: one MetricsRegistry + one TraceCollector + one
// PhaseAccumulator, shared by every layer of a run (core solvers,
// portfolio workers, the service scheduler, the proof checker). Construct
// one Telemetry per process/run, hand pointers down via options structs,
// snapshot or drain it from any thread while solves are running.
#pragma once

#include <string>
#include <vector>

#include "telemetry/metrics.h"
#include "telemetry/phase.h"
#include "telemetry/trace.h"

namespace berkmin::telemetry {

enum class TraceFormat {
  chrome,  // Chrome trace_event JSON (chrome://tracing, Perfetto)
  jsonl,   // one event object per line
};

class Telemetry {
 public:
  explicit Telemetry(std::size_t ring_capacity = 8192)
      : trace_(ring_capacity) {}

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  TraceCollector& trace() { return trace_; }
  const TraceCollector& trace() const { return trace_; }
  PhaseAccumulator& phases() { return phases_; }
  const PhaseAccumulator& phases() const { return phases_; }

  // Registry snapshot with the phase profile merged in. Safe concurrently
  // with running solves.
  MetricsSnapshot snapshot() const;

  // Drains all rings into the internal retained-event buffer and returns a
  // copy of everything drained so far. Repeated calls accumulate, so a
  // periodic drainer and a final writer see the same full event stream.
  std::vector<TaggedEvent> drain_trace();

  // Drain + write all retained events to `path` in the given format.
  // Returns false (with *error set) on I/O failure.
  bool write_trace_file(const std::string& path, TraceFormat format,
                        std::string* error = nullptr);

 private:
  MetricsRegistry metrics_;
  TraceCollector trace_;
  PhaseAccumulator phases_;
  std::mutex retained_mu_;
  std::vector<TaggedEvent> retained_;
};

}  // namespace berkmin::telemetry
