// Configuration diversification for the parallel portfolio (Section 4-8
// heuristics as diversification knobs).
//
// A portfolio is only as strong as its spread: every SolverOptions toggle
// the paper ablates (decision policy, activity sensitivity, polarity,
// database management) plus the restart/decay schedule and the
// tie-breaking seed is a dimension along which workers can disagree, and
// clause sharing turns that disagreement into collective progress.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/options.h"

namespace berkmin::portfolio {

struct WorkerConfig {
  std::string name;
  SolverOptions options;
};

// The default portfolio lineup. Worker 0 is always the paper's BerkMin
// configuration; the next workers cover the Chaff-like baseline and the
// Table 1/2/4/5 ablation presets; past the named presets the generator
// fabricates variants with varied restart intervals, decay schedules,
// polarities and seeds (deterministic in base_seed). Every configuration
// restarts, so each worker reaches import points.
std::vector<WorkerConfig> diversified_configs(int num_workers,
                                              std::uint64_t base_seed);

// Variations of one base configuration: worker 0 is `base` unchanged, the
// rest only vary the restart schedule, decay interval and seed, keeping
// the heuristic policies intact. The lineup make_engine races, so a
// caller's configuration keeps its meaning at any thread count.
std::vector<WorkerConfig> diversify_around(const SolverOptions& base,
                                           int num_workers,
                                           std::uint64_t base_seed);

}  // namespace berkmin::portfolio
