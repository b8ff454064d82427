// Explores the paper's benchmark classes interactively: runs one class
// (or every class) under any preset, printing per-instance statistics —
// the quickest way to see how instance structure drives the heuristics.
//
//   ./build/examples/class_runner --class Hanoi --preset chaff --scale 2
//   ./build/examples/class_runner --all --timeout 5
#include <iostream>

#include "cnf/cnf_stats.h"
#include "harness/runner.h"
#include "harness/suites.h"
#include "util/cli.h"
#include "util/table.h"

using namespace berkmin;

namespace {

int run_class(const harness::Suite& suite, const SolverOptions& options,
              double timeout, int threads, int pool) {
  std::cout << "== " << suite.name << " ==\n";
  Table table({"Instance", "Shape", "Status", "Time (s)", "Decisions",
               "Conflicts", "Learned", "Peak DB"});
  int violations = 0;

  std::vector<harness::RunResult> runs;
  if (pool > 1) {
    // Batch mode: the whole class goes through one time-sliced
    // SolverService so instances interleave over the pool; --threads
    // escalates each job to a portfolio of that size inside its slices.
    service::ServiceOptions sopts;
    sopts.num_workers = pool;
    runs = harness::run_suite_service(suite, options, timeout, sopts, threads)
               .runs;
  } else {
    for (const harness::Instance& instance : suite.instances) {
      runs.push_back(harness::run_instance(instance, options, timeout, threads));
    }
  }

  for (std::size_t i = 0; i < runs.size(); ++i) {
    const harness::RunResult& run = runs[i];
    const CnfStats shape = compute_stats(suite.instances[i].cnf);
    if (run.expectation_violated) ++violations;
    table.add_row({run.name,
                   std::to_string(shape.num_vars) + "v/" +
                       std::to_string(shape.num_clauses) + "c",
                   run.timed_out ? "timeout" : to_string(run.status),
                   format_seconds(run.seconds),
                   format_count(run.stats.decisions),
                   format_count(run.stats.conflicts),
                   format_count(run.stats.learned_clauses),
                   format_ratio(run.stats.db_peak_ratio())});
  }
  std::cout << table.to_string() << "\n";
  return violations;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  args.add_option("class", "Hanoi",
                  "class name: Hole, Blocksworld, Par16, Sss1.0, Sss1.0a, "
                  "Sss_sat1.0, Fvp_unsat1.0, Vliw_sat1.0, Beijing, Hanoi, "
                  "Miters, Fvp_unsat2.0");
  args.add_option("preset", "berkmin", "solver preset: " + preset_list());
  args.add_option("scale", "2", "instance scale", {.min = 1, .max = kMaxInt});
  args.add_option("timeout", "10.0", "per-instance timeout in seconds",
                  {.min = 0});
  args.add_option("seed", "7", "generator seed");
  args.add_option("threads", "1", "portfolio workers per solve",
                  {.min = 1, .max = kMaxThreads});
  args.add_option("pool", "1",
                  "batch the class through a time-sliced SolverService with "
                  "this many worker threads (1 = solve instances one by one)",
                  {.min = 1, .max = kMaxThreads});
  args.add_flag("all", "run every class");
  args.add_flag("help", "show this help");
  if (!args.parse()) {
    std::cerr << "error: " << args.error() << "\n";
    return 1;
  }
  if (args.has_flag("help")) {
    std::cout << args.help("class_runner — explore the paper's benchmark classes");
    return 0;
  }

  const std::optional<SolverOptions> preset =
      preset_by_name(args.get_string("preset"));
  if (!preset) {
    std::cerr << "error: unknown preset '" << args.get_string("preset")
              << "' (" << preset_list() << ")\n";
    return 1;
  }
  const SolverOptions& options = *preset;

  const int scale = static_cast<int>(args.get_int("scale"));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
  const double timeout = args.get_double("timeout");
  const int threads = static_cast<int>(args.get_int("threads"));
  const int pool = static_cast<int>(args.get_int("pool"));

  int violations = 0;
  try {
    if (args.has_flag("all")) {
      for (const harness::Suite& suite : harness::paper_classes(scale, seed)) {
        violations += run_class(suite, options, timeout, threads, pool);
      }
    } else {
      violations += run_class(
          harness::suite_by_name(args.get_string("class"), scale, seed),
          options, timeout, threads, pool);
    }
  } catch (const std::exception& ex) {
    std::cerr << "error: " << ex.what() << "\n";
    return 1;
  }
  if (violations > 0) {
    std::cerr << "ERROR: " << violations << " expectation violations\n";
    return 1;
  }
  return 0;
}
