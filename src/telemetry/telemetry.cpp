#include "telemetry/telemetry.h"

#include <fstream>

#include "core/solver_types.h"
#include "telemetry/solver_telemetry.h"
#include "util/table.h"

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
  c_decisions = m.counter("solver.decisions");
  c_propagations = m.counter("solver.propagations");
  c_conflicts = m.counter("solver.conflicts");
  c_restarts = m.counter("solver.restarts");
  c_reductions = m.counter("solver.reductions");
  c_learned_clauses = m.counter("solver.learned_clauses");
  c_learned_units = m.counter("solver.learned_units");
  c_deleted_clauses = m.counter("solver.deleted_clauses");
  c_strengthened_clauses = m.counter("solver.strengthened_clauses");
  c_minimized_literals = m.counter("solver.minimized_literals");
  c_top_clause_decisions = m.counter("solver.top_clause_decisions");
  c_exported_clauses = m.counter("solver.exported_clauses");
  c_imported_clauses = m.counter("solver.imported_clauses");
  c_duplicate_binaries_skipped = m.counter("solver.duplicate_binaries_skipped");
  c_groups_pushed = m.counter("solver.groups_pushed");
  c_groups_popped = m.counter("solver.groups_popped");
  c_pop_retained_learned = m.counter("solver.pop_retained_learned");
  c_pop_dropped_learned = m.counter("solver.pop_dropped_learned");
  c_inprocessings = m.counter("solver.inprocessings");
  c_probed_units = m.counter("solver.probed_units");
  c_vivified_clauses = m.counter("solver.vivified_clauses");
  c_subsumed_clauses = m.counter("solver.subsumed_clauses");
  c_eliminated_vars = m.counter("solver.eliminated_vars");
  c_no_learn_restarts = m.counter("solver.no_learn_restarts");
  c_pressure_reductions = m.counter("solver.pressure_reductions");
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
  auto flush = [](Counter* counter, std::uint64_t current,
                  std::uint64_t* prev) {
    if (current > *prev) {
      counter->add(current - *prev);
      *prev = current;
    }
  };
  flush(c_decisions, stats.decisions, &seen->decisions);
  flush(c_propagations, stats.propagations, &seen->propagations);
  flush(c_conflicts, stats.conflicts, &seen->conflicts);
  flush(c_restarts, stats.restarts, &seen->restarts);
  flush(c_reductions, stats.reductions, &seen->reductions);
  flush(c_learned_clauses, stats.learned_clauses, &seen->learned_clauses);
  flush(c_learned_units, stats.learned_units, &seen->learned_units);
  flush(c_deleted_clauses, stats.deleted_clauses, &seen->deleted_clauses);
  flush(c_strengthened_clauses, stats.strengthened_clauses,
        &seen->strengthened_clauses);
  flush(c_minimized_literals, stats.minimized_literals,
        &seen->minimized_literals);
  flush(c_top_clause_decisions, stats.top_clause_decisions,
        &seen->top_clause_decisions);
  flush(c_exported_clauses, stats.exported_clauses, &seen->exported_clauses);
  flush(c_imported_clauses, stats.imported_clauses, &seen->imported_clauses);
  flush(c_duplicate_binaries_skipped, stats.duplicate_binaries_skipped,
        &seen->duplicate_binaries_skipped);
  flush(c_groups_pushed, stats.groups_pushed, &seen->groups_pushed);
  flush(c_groups_popped, stats.groups_popped, &seen->groups_popped);
  flush(c_pop_retained_learned, stats.pop_retained_learned,
        &seen->pop_retained_learned);
  flush(c_pop_dropped_learned, stats.pop_dropped_learned,
        &seen->pop_dropped_learned);
  flush(c_inprocessings, stats.inprocessings, &seen->inprocessings);
  flush(c_probed_units, stats.probed_units, &seen->probed_units);
  flush(c_vivified_clauses, stats.vivified_clauses, &seen->vivified_clauses);
  flush(c_subsumed_clauses, stats.subsumed_clauses, &seen->subsumed_clauses);
  flush(c_eliminated_vars, stats.eliminated_vars, &seen->eliminated_vars);
  flush(c_no_learn_restarts, stats.no_learn_restarts,
        &seen->no_learn_restarts);
  flush(c_pressure_reductions, stats.pressure_reductions,
        &seen->pressure_reductions);

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

std::string render_summary(const MetricsSnapshot& snapshot) {
  std::string out;
  if (!snapshot.counters.empty() || !snapshot.gauges.empty()) {
    Table table({"metric", "value"});
    for (const auto& [name, value] : snapshot.counters) {
      table.add_row({name, format_count(value)});
    }
    for (const auto& [name, value] : snapshot.gauges) {
      table.add_row({name + " (gauge)", std::to_string(value)});
    }
    out += table.to_string();
  }
  if (!snapshot.histograms.empty()) {
    if (!out.empty()) out += "\n";
    Table table({"histogram", "count", "mean", "p50", "p90", "p99", "max"});
    for (const auto& [name, hist] : snapshot.histograms) {
      table.add_row({name, format_count(hist.count),
                     format_count(static_cast<std::uint64_t>(hist.mean())),
                     format_count(hist.quantile(0.5)),
                     format_count(hist.quantile(0.9)),
                     format_count(hist.quantile(0.99)),
                     format_count(hist.max)});
    }
    out += table.to_string();
  }
  if (!snapshot.phases.empty()) {
    if (!out.empty()) out += "\n";
    Table table({"phase", "calls", "seconds"});
    for (const auto& [name, totals] : snapshot.phases) {
      table.add_row({name, format_count(totals.calls),
                     format_seconds(static_cast<double>(totals.ns) / 1e9)});
    }
    out += table.to_string();
  }
  return out;
}

}  // namespace berkmin::telemetry
