// The benchmark's two workloads (see README.md for why each was chosen).
//
// A workload is a function of its seed: it generates every input from the
// seed, drives the library through public calls, checks every answer,
// and returns what it observed as a Run. Passing a telemetry hub and a
// span recorder gives the traced variant of the same run.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "measure.h"
#include "telemetry/telemetry.h"

namespace stackbench {

struct Config {
  std::uint64_t seed = 1;
  double seconds = 50.0;
  // Run round 0 only. The per-layer figures come from round 0 alone, so
  // both passes of a traced run stop after it.
  bool first_round_only = false;
  // Traced variant: a hub attached through the library's public hooks
  // (Solver::set_telemetry, ServiceOptions::telemetry) and spans recorded
  // around the benchmark's own calls. Both null for the untraced run.
  berkmin::telemetry::Telemetry* hub = nullptr;
  SpanRecorder* spans = nullptr;
};

// What one pass of a workload observed.
//
// Both workloads answer every request once per round, on a fresh solver
// or session, and time each request and each of its answers by its
// fastest round. Per-layer figures come from round 0 alone, the only
// round the hub and the spans see, so phase times, counters and call
// times describe one solve per request.
struct Run {
  // Correctness: every checked answer is an attempt; a wrong, missing or
  // uncertified answer is a failure (the first few are described).
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  void check(bool ok, const std::string& what);

  // ---- end to end ----
  std::vector<double> setup_s;     // one entry per set-up repetition
  double solve_s = 0.0;            // every request once, set-up excluded
  std::vector<double> verdict_ms;  // per request, to a validated verdict
  std::vector<double> answer_ms;   // per solver answer

  // ---- per layer ----
  // Deterministic work counters ("core.conflicts", "engines.obligations",
  // ...): a second run with the same seed must repeat them exactly.
  std::map<std::string, std::uint64_t> counters;
  double first_round_s = 0.0;    // solve_s of round 0 alone
  double call_s = 0.0;           // time inside solve calls
  std::vector<double> call_us;   // latency of each solve call
  double group_ops_s = 0.0;      // push / pop / activate
  std::uint64_t engine_verdicts = 0;
  std::uint64_t engine_queries = 0;
  std::vector<double> queue_ms;  // queue wait per session answer
  // Certification cost per checked answer, one vector per session in
  // query order.
  std::vector<std::vector<double>> check_ms;
};

const std::vector<std::string>& workload_names();
bool is_workload(const std::string& name);
Run run_workload(const std::string& name, const Config& config);

}  // namespace stackbench
