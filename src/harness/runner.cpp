#include "harness/runner.h"

#include <memory>

#include "portfolio/portfolio.h"
#include "util/table.h"
#include "util/timer.h"

namespace berkmin::harness {

namespace {

// Shared scoring against the generator's expectation, once a status and
// (for satisfiable answers) a model are known.
void score_result(RunResult* result, const Instance& instance,
                  const std::vector<Value>& model) {
  result->timed_out = result->status == SolveStatus::unknown;
  if (result->status == SolveStatus::satisfiable) {
    // Always validate models against the original formula.
    if (!instance.cnf.is_satisfied_by(model)) {
      result->expectation_violated = true;
    }
    if (instance.expected == gen::Expectation::unsat) {
      result->expectation_violated = true;
    }
  } else if (result->status == SolveStatus::unsatisfiable &&
             instance.expected == gen::Expectation::sat) {
    result->expectation_violated = true;
  }
}

}  // namespace

RunResult run_instance(const Instance& instance, const SolverOptions& options,
                       double timeout_seconds, int threads) {
  const std::unique_ptr<SatEngine> engine =
      portfolio::make_engine(options, threads);
  engine->load(instance.cnf);

  RunResult result;
  result.name = instance.name;
  WallTimer timer;
  result.status =
      engine->solve_with_assumptions({}, Budget::wall_clock(timeout_seconds));
  result.seconds = timer.seconds();
  result.stats = engine->stats();
  score_result(&result, instance, engine->model());
  return result;
}

std::string ClassResult::format_time(double timeout_seconds) const {
  if (aborted == 0) return format_seconds(finished_seconds);
  const double lower_bound = finished_seconds + aborted * timeout_seconds;
  return "> " + format_seconds(lower_bound) + " (" + std::to_string(aborted) + ")";
}

ClassResult run_suite(const Suite& suite, const SolverOptions& options,
                      double timeout_seconds, int threads) {
  ClassResult result;
  result.class_name = suite.name;
  for (const Instance& instance : suite.instances) {
    RunResult run = run_instance(instance, options, timeout_seconds, threads);
    ++result.num_instances;
    if (run.timed_out) {
      ++result.aborted;
    } else {
      ++result.solved;
      result.finished_seconds += run.seconds;
    }
    if (run.expectation_violated) ++result.wrong;
    result.runs.push_back(std::move(run));
  }
  return result;
}

ClassResult run_suite_service(const Suite& suite, const SolverOptions& options,
                              double timeout_seconds,
                              const service::ServiceOptions& service_options,
                              int job_threads) {
  service::SolverService solving(service_options);

  std::vector<service::JobId> ids;
  ids.reserve(suite.instances.size());
  for (const Instance& instance : suite.instances) {
    service::JobRequest request;
    request.name = instance.name;
    request.cnf = instance.cnf;
    request.options = options;
    request.limits.deadline_seconds = timeout_seconds;
    request.limits.threads = job_threads;
    // submit() only fails after shutdown, which cannot have happened yet.
    ids.push_back(*solving.submit(std::move(request)));
  }

  ClassResult result;
  result.class_name = suite.name;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const service::JobResult job = solving.wait(ids[i]);
    const Instance& instance = suite.instances[i];

    RunResult run;
    run.name = instance.name;
    run.status = job.status;
    run.seconds = job.solve_seconds;
    run.stats.conflicts = job.conflicts;
    run.stats.decisions = job.decisions;
    run.stats.propagations = job.propagations;
    run.stats.learned_clauses = job.learned_clauses;
    run.stats.max_live_clauses = job.max_live_clauses;
    run.stats.initial_clauses = job.initial_clauses;
    score_result(&run, instance, job.model);

    ++result.num_instances;
    if (run.timed_out) {
      ++result.aborted;
    } else {
      ++result.solved;
      result.finished_seconds += run.seconds;
    }
    if (run.expectation_violated) ++result.wrong;
    result.runs.push_back(std::move(run));
  }
  solving.shutdown(service::SolverService::Shutdown::drain);
  return result;
}

ClassResult total_row(const std::vector<ClassResult>& rows) {
  ClassResult total;
  total.class_name = "Total";
  for (const ClassResult& row : rows) {
    total.num_instances += row.num_instances;
    total.solved += row.solved;
    total.aborted += row.aborted;
    total.wrong += row.wrong;
    total.finished_seconds += row.finished_seconds;
  }
  return total;
}

}  // namespace berkmin::harness
