// Experiment runner: solves suites under per-instance timeouts and
// aggregates results the way the paper's tables report them (total time
// over finished instances, plus "> total (k aborted)" rows).
#pragma once

#include <string>
#include <vector>

#include "core/options.h"
#include "core/solver.h"
#include "harness/suites.h"
#include "service/solver_service.h"

namespace berkmin::harness {

struct RunResult {
  std::string name;
  SolveStatus status = SolveStatus::unknown;
  bool timed_out = false;
  bool expectation_violated = false;  // solved but disagreed with generator
  double seconds = 0.0;
  SolverStats stats;
};

// Solves on portfolio::make_engine(options, threads): `threads` > 1 races a
// portfolio whose worker 0 keeps `options` unchanged, so comparisons across
// options stay meaningful at any thread count. `stats` is the engine's
// answer stats (SatEngine::stats): for a portfolio the winner's, with the
// clause-exchange totals summed over workers.
RunResult run_instance(const Instance& instance, const SolverOptions& options,
                       double timeout_seconds, int threads = 1);

struct ClassResult {
  std::string class_name;
  int num_instances = 0;
  int solved = 0;
  int aborted = 0;
  int wrong = 0;  // expectation violations (must stay 0)
  double finished_seconds = 0.0;  // sum over solved instances
  std::vector<RunResult> runs;

  // The paper's convention: finished time, or "> S (k)" where S adds the
  // timeout for every aborted instance.
  std::string format_time(double timeout_seconds) const;
};

ClassResult run_suite(const Suite& suite, const SolverOptions& options,
                      double timeout_seconds, int threads = 1);

// Routes a whole suite through a time-sliced SolverService instead of
// one-shot solvers: every instance is submitted as a job (deadline =
// timeout_seconds) and the service's worker pool interleaves them, so one
// hard instance cannot serialize the batch. `job_threads` > 1 escalates
// each job to a portfolio run of that many workers inside its slices.
// Results are scored exactly like run_suite's.
ClassResult run_suite_service(const Suite& suite, const SolverOptions& options,
                              double timeout_seconds,
                              const service::ServiceOptions& service_options,
                              int job_threads = 1);

// Sums class results into a "Total" row (aborts propagate).
ClassResult total_row(const std::vector<ClassResult>& rows);

}  // namespace berkmin::harness
