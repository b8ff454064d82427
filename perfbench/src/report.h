// Turns the Runs of one benchmark invocation into named metrics and the
// one-line JSON result.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "measure.h"
#include "telemetry/telemetry.h"
#include "workloads.h"

namespace stackbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Untraced run: the end-to-end metrics, in BENCHMARK.json order.
std::vector<Metric> end_to_end_metrics(const Run& run, double peak_rss_mb);

// Traced run: `plain` is the untraced pass and `traced` the pass with the
// hub and spans attached, both on the same seed. Counters that differ
// between the two passes are listed in *nondeterministic.
std::vector<Metric> per_layer_metrics(
    const Run& plain, const Run& traced,
    const berkmin::telemetry::Telemetry& hub, const SpanRecorder& spans,
    std::vector<std::string>* nondeterministic);

// The percentile and sample count behind each *_tail_* metric.
std::string tails_json(const Run& run);

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics);

double peak_rss_mb();

}  // namespace stackbench
