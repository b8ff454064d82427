// Self-tests of the stack benchmark:
//
//   * the tail rule and its sample count, and percentile interpolation;
//   * every metric BENCHMARK.json names is reported, with its unit;
//   * the timing backend decorator changes no verdict and no counter.
//
//   stackbench_selftest <path to BENCHMARK.json>
//
// Prints one line per failed check and exits nonzero if any failed.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/solver.h"
#include "engines/bmc.h"
#include "engines/ic3.h"
#include "gen/registry.h"
#include "gen/safety.h"
#include "measure.h"
#include "report.h"
#include "workloads.h"

using namespace stackbench;
using namespace berkmin;

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (ok) return;
  ++failures;
  std::cout << "FAIL: " << what << "\n";
}

std::vector<double> one_to(int n) {
  std::vector<double> xs;
  for (int i = n; i >= 1; --i) xs.push_back(i);  // unsorted on purpose
  return xs;
}

void test_tail_rule() {
  expect(tail({}).samples == 0, "empty tail has no samples");
  const Tail small = tail(one_to(19));
  expect(small.samples == 19 && small.percentile == 50.0 && small.value == 10.0,
         "below 20 samples the tail is the median");
  const Tail twenty = tail(one_to(20));
  expect(twenty.value == 10.0 && twenty.percentile == 50.0,
         "20 samples: rank 10 has ten samples beyond it");
  const Tail hundred = tail(one_to(100));
  expect(hundred.value == 90.0 && hundred.percentile == 90.0 &&
             hundred.samples == 100,
         "100 samples: the tail is p90 with 100 samples");
  const Tail thousand = tail(one_to(1000));
  expect(thousand.value == 990.0 && thousand.percentile == 99.0,
         "1000 samples: the tail is p99");
  expect(median({1, 2, 3, 4}) == 2.5, "even-sized median interpolates");
  expect(percentile({5}, 99) == 5.0, "one sample is every percentile");
}

// Extracts the "name" and "unit" of every object in BENCHMARK.json's
// `section` array, in order.
std::vector<std::pair<std::string, std::string>> declared(
    const std::string& json, const std::string& section) {
  std::vector<std::pair<std::string, std::string>> out;
  std::size_t pos = json.find("\"" + section + "\"");
  if (pos == std::string::npos) return out;
  const std::size_t end = json.find(']', pos);
  const auto field = [&json](const std::string& key, std::size_t from,
                             std::size_t limit) -> std::pair<std::string, std::size_t> {
    const std::size_t k = json.find("\"" + key + "\"", from);
    if (k == std::string::npos || k > limit) return {"", std::string::npos};
    const std::size_t open = json.find('"', json.find(':', k) + 1);
    const std::size_t close = json.find('"', open + 1);
    return {json.substr(open + 1, close - open - 1), close};
  };
  while (true) {
    const std::size_t object = json.find('{', pos);
    if (object == std::string::npos || object > end) break;
    const std::size_t object_end = json.find('}', object);
    const auto name = field("name", object, object_end);
    const auto unit = field("unit", object, object_end);
    out.emplace_back(name.first, unit.first);
    pos = object_end;
  }
  return out;
}

void test_output_completeness(const std::string& benchmark_json) {
  std::ifstream in(benchmark_json);
  expect(static_cast<bool>(in), "cannot read " + benchmark_json);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();

  Run run;
  run.setup_s = {0.1};
  run.solve_s = 1.0;
  run.verdict_ms = run.answer_ms = {1, 2, 3};
  std::vector<std::string> nondeterministic;
  telemetry::Telemetry hub;
  SpanRecorder spans;
  const std::vector<Metric> e2e = end_to_end_metrics(run, 1.0);
  const std::vector<Metric> layers =
      per_layer_metrics(run, run, hub, spans, &nondeterministic);

  const auto check_section = [&](const std::string& section,
                                 const std::vector<Metric>& metrics) {
    const auto names = declared(json, section);
    expect(names.size() == metrics.size(),
           section + ": BENCHMARK.json declares " +
               std::to_string(names.size()) + " metrics, the benchmark reports " +
               std::to_string(metrics.size()));
    const std::string line = result_json(true, 1, 0, metrics);
    for (const auto& [name, unit] : names) {
      const std::string wanted = "\"" + name + "\": {\"value\": ";
      const std::size_t at = line.find(wanted);
      const bool with_unit =
          at != std::string::npos &&
          line.find("\"unit\": \"" + unit + "\"", at) ==
              line.find("\"unit\"", at);
      expect(with_unit, section + ": " + name + " reported with unit " + unit);
    }
  };
  check_section("end_to_end", e2e);
  check_section("per_layer", layers);
  expect(nondeterministic.empty(), "identical runs report no divergent counter");
}

// Runs both engines over a plain solver backend and over the timing
// decorator and requires identical verdicts and counters.
void test_timing_backend() {
  for (int index = 0; index < 12; ++index) {
    gen::SafetyParams params;
    params.seed = 1000 + 7919 * static_cast<std::uint64_t>(index);
    params.safe = index % 2 == 0;
    params.num_latches = 10;
    params.num_inputs = 4;
    params.num_gates = 60;
    params.cycles = 12;
    const engines::TransitionSystem ts = gen::safety_system(params);
    for (const bool bmc : {true, false}) {
      const auto run = [&](bool timed, SolverStats* stats) {
        Solver solver(SolverOptions::berkmin());
        engines::SolverBackend inner(solver);
        SpanRecorder spans;
        TimingBackend timing(inner, &spans, 0);
        engines::EngineBackend& backend =
            timed ? static_cast<engines::EngineBackend&>(timing) : inner;
        const engines::EngineResult result =
            bmc ? engines::BmcEngine(ts, backend, {.bound = 30}).run()
                : engines::Ic3Engine(ts, backend, {}).run();
        *stats = solver.stats();
        if (timed) {
          expect(timing.totals().solve_calls == result.stats.solves,
                 "decorator counts every solve call");
        }
        return result;
      };
      SolverStats plain_stats;
      SolverStats timed_stats;
      const engines::EngineResult plain = run(false, &plain_stats);
      const engines::EngineResult timed = run(true, &timed_stats);
      const std::string what = std::string(bmc ? "bmc" : "ic3") + " system " +
                               std::to_string(index);
      expect(plain.verdict == timed.verdict && plain.bound == timed.bound &&
                 plain.cex.has_value() == timed.cex.has_value() &&
                 plain.cex_validated == timed.cex_validated,
             what + ": same verdict through the decorator");
      expect(plain.stats.solves == timed.stats.solves &&
                 plain.stats.pushes == timed.stats.pushes &&
                 plain.stats.pops == timed.stats.pops &&
                 plain.stats.obligations == timed.stats.obligations &&
                 plain.stats.generalization_drops ==
                     timed.stats.generalization_drops,
             what + ": same engine counters through the decorator");
      expect(plain_stats.propagations == timed_stats.propagations &&
                 plain_stats.conflicts == timed_stats.conflicts &&
                 plain_stats.decisions == timed_stats.decisions,
             what + ": same solver counters through the decorator");
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: stackbench_selftest <path to BENCHMARK.json>\n";
    return 2;
  }
  test_tail_rule();
  test_output_completeness(argv[1]);
  test_timing_backend();
  std::cout << (failures == 0 ? "selftest: all checks passed\n"
                              : "selftest: " + std::to_string(failures) +
                                    " check(s) failed\n");
  return failures == 0 ? 0 : 1;
}
