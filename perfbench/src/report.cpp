#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <set>
#include <sstream>

#include "telemetry/phase.h"

namespace stackbench {

using berkmin::telemetry::Phase;

namespace {

double sum(const std::vector<double>& xs) {
  return std::accumulate(xs.begin(), xs.end(), 0.0);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::uint64_t counter(const Run& run, const std::string& name) {
  const auto it = run.counters.find(name);
  return it == run.counters.end() ? 0 : it->second;
}

double phase_seconds(const berkmin::telemetry::Telemetry& hub, Phase phase) {
  return static_cast<double>(hub.phases().totals(phase).ns) * 1e-9;
}

// Mean certification cost of the last quarter of each session's checked
// answers over that of the first quarter (1.0 = flat).
double check_growth(const std::vector<std::vector<double>>& sessions) {
  double first = 0.0;
  double last = 0.0;
  std::size_t first_n = 0;
  std::size_t last_n = 0;
  for (const std::vector<double>& answers : sessions) {
    const std::size_t quarter = answers.size() / 4;
    if (quarter == 0) continue;
    for (std::size_t i = 0; i < quarter; ++i) {
      first += answers[i];
      last += answers[answers.size() - 1 - i];
    }
    first_n += quarter;
    last_n += quarter;
  }
  return ratio(last / std::max<std::size_t>(last_n, 1),
               first / std::max<std::size_t>(first_n, 1));
}

std::string number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

}  // namespace

std::vector<Metric> end_to_end_metrics(const Run& run, double rss_mb) {
  return {
      {"setup_s", median(run.setup_s), "s"},
      {"solve_s", run.solve_s, "s"},
      {"peak_rss_mb", rss_mb, "MB"},
      {"verdict_p50_ms", median(run.verdict_ms), "ms"},
      {"verdict_tail_ms", tail(run.verdict_ms).value, "ms"},
      {"answer_p50_ms", median(run.answer_ms), "ms"},
      {"answer_tail_ms", tail(run.answer_ms).value, "ms"},
  };
}

std::vector<Metric> per_layer_metrics(
    const Run& plain, const Run& traced,
    const berkmin::telemetry::Telemetry& hub, const SpanRecorder& spans,
    std::vector<std::string>* nondeterministic) {
  // Counters must repeat exactly between two passes on one seed.
  std::set<std::string> names;
  for (const auto& [name, value] : plain.counters) names.insert(name);
  for (const auto& [name, value] : traced.counters) names.insert(name);
  for (const std::string& name : names) {
    if (counter(plain, name) != counter(traced, name)) {
      nondeterministic->push_back(name);
    }
  }

  // Engine self time: engine run spans minus the backend calls inside.
  const std::map<std::string, double> self = spans.self_seconds_by_name();
  const auto self_of = [&self](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  const double check_s = [&plain] {
    double total = 0.0;
    for (const auto& session : plain.check_ms) total += sum(session);
    return total * 1e-3;
  }();

  const auto count = [&plain](const char* name) {
    return static_cast<double>(counter(plain, name));
  };
  return {
      {"core.propagations", count("core.propagations"), "count"},
      {"core.conflicts", count("core.conflicts"), "count"},
      {"core.decisions", count("core.decisions"), "count"},
      {"core.props_per_s", ratio(count("core.propagations"), plain.call_s),
       "1/s"},
      {"core.bcp_s", phase_seconds(hub, Phase::bcp), "s"},
      {"core.analyze_s", phase_seconds(hub, Phase::analyze), "s"},
      {"core.decide_s", phase_seconds(hub, Phase::decide), "s"},
      {"core.reduce_s", phase_seconds(hub, Phase::reduce), "s"},
      {"core.gc_s", phase_seconds(hub, Phase::garbage_collect), "s"},
      {"core.inprocess_s", phase_seconds(hub, Phase::inprocess), "s"},
      {"core.solve_calls", count("core.solve_calls"), "count"},
      {"core.call_p50_us", median(plain.call_us), "us"},
      {"core.call_tail_us", tail(plain.call_us).value, "us"},
      {"core.group_ops_s", plain.group_ops_s, "s"},
      {"engines.self_s", self_of("engine.bmc") + self_of("engine.ic3"), "s"},
      {"engines.queries_per_verdict",
       ratio(static_cast<double>(plain.engine_queries),
             static_cast<double>(plain.engine_verdicts)),
       "ratio"},
      {"engines.obligations", count("engines.obligations"), "count"},
      {"engines.generalization_drops", count("engines.generalization_drops"),
       "count"},
      {"service.queue_p50_ms", median(plain.queue_ms), "ms"},
      {"service.queue_tail_ms", tail(plain.queue_ms).value, "ms"},
      {"service.slices", count("service.slices"), "count"},
      {"proof.verify_s", phase_seconds(hub, Phase::verify), "s"},
      {"proof.trim_s", phase_seconds(hub, Phase::trim), "s"},
      {"proof.check_s", check_s, "s"},
      {"proof.check_share", ratio(check_s, plain.first_round_s), "ratio"},
      {"proof.check_growth", check_growth(plain.check_ms), "ratio"},
      {"telemetry.overhead_pct",
       100.0 * ratio(traced.first_round_s - plain.first_round_s,
                     plain.first_round_s),
       "%"},
      {"counters.nondeterministic",
       static_cast<double>(nondeterministic->size()), "count"},
  };
}

std::string tails_json(const Run& run) {
  std::ostringstream out;
  const auto one = [&out](const char* name, const std::vector<double>& xs,
                          const char* separator) {
    const Tail t = tail(xs);
    out << "\"" << name << "\": {\"percentile\": " << number(t.percentile)
        << ", \"samples\": " << t.samples << "}" << separator;
  };
  out << "{";
  one("verdict_tail_ms", run.verdict_ms, ", ");
  one("answer_tail_ms", run.answer_ms, "");
  out << "}";
  return out.str();
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "\"" << metrics[i].name
        << "\": {\"value\": " << number(metrics[i].value) << ", \"unit\": \""
        << metrics[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace stackbench
