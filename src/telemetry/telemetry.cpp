#include "telemetry/telemetry.h"

#include <fstream>

#include "core/solver_types.h"
#include "telemetry/solver_telemetry.h"

namespace berkmin::telemetry {

MetricsSnapshot Telemetry::snapshot() const {
  MetricsSnapshot snap = metrics_.snapshot();
  for (std::size_t i = 0; i < kNumPhases; ++i) {
    const auto phase = static_cast<Phase>(i);
    const PhaseAccumulator::Totals totals = phases_.totals(phase);
    if (totals.calls != 0) snap.phases[to_string(phase)] = totals;
  }
  return snap;
}

std::vector<TaggedEvent> Telemetry::drain_trace() {
  std::lock_guard<std::mutex> guard(retained_mu_);
  trace_.drain(&retained_);
  return retained_;
}

bool Telemetry::write_trace_file(const std::string& path, TraceFormat format,
                                 std::string* error) {
  const std::vector<TaggedEvent> events = drain_trace();
  const std::vector<std::string> names = trace_.ring_names();
  std::ofstream out(path);
  if (!out) {
    if (error != nullptr) *error = "cannot open " + path + " for writing";
    return false;
  }
  if (format == TraceFormat::chrome) {
    write_chrome_trace(out, events, names);
  } else {
    write_trace_jsonl(out, events, names);
  }
  out.flush();
  if (!out) {
    if (error != nullptr) *error = "write to " + path + " failed";
    return false;
  }
  return true;
}

SolverTelemetry::SolverTelemetry(Telemetry& hub_in, TraceRing* ring_in)
    : hub(&hub_in), ring(ring_in) {
  MetricsRegistry& m = hub->metrics();
  for (std::size_t i = 0; i < kNumSolverCounters; ++i) {
    counters[i] = m.counter(std::string("solver.") + kSolverCounters[i].name);
  }
  h_glue = m.histogram("solver.glue");
}

std::int64_t SolverTelemetry::now_ns() const { return hub->trace().now_ns(); }

void SolverTelemetry::emit(EventKind kind, std::int64_t ts_ns,
                           std::int64_t dur_ns, std::uint64_t a,
                           std::uint64_t b) const {
  if (ring == nullptr) return;
  TraceEvent event;
  event.ts_ns = ts_ns;
  event.dur_ns = dur_ns;
  event.kind = kind;
  event.a = a;
  event.b = b;
  ring->emit(event);
}

void SolverTelemetry::add_phase(Phase phase, std::int64_t start_ns) const {
  hub->phases().add(phase, static_cast<std::uint64_t>(now_ns() - start_ns));
}

void SolverTelemetry::publish(const SolverStats& stats,
                              StatsCursor* seen) const {
  for (std::size_t i = 0; i < kNumSolverCounters; ++i) {
    const std::uint64_t current = stats.*kSolverCounters[i].field;
    if (current > seen->counters[i]) {
      counters[i]->add(current - seen->counters[i]);
      seen->counters[i] = current;
    }
  }

  // Mirror the glue distribution: record each glue value as many times as
  // it grew since the last publish. Glue is capped at 256 by record_glue,
  // so the loop and the per-item records stay cheap.
  if (seen->glue_histogram.size() < stats.glue_histogram.size()) {
    seen->glue_histogram.resize(stats.glue_histogram.size(), 0);
  }
  for (std::size_t g = 0; g < stats.glue_histogram.size(); ++g) {
    for (std::uint64_t d = stats.glue_histogram[g] - seen->glue_histogram[g];
         d > 0; --d) {
      h_glue->record(g);
    }
    seen->glue_histogram[g] = stats.glue_histogram[g];
  }
}

}  // namespace berkmin::telemetry
