// stackbench: the repository's end-to-end and per-layer benchmark.
//
//   stackbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--span-dir <dir>]
//
// --trace 0 runs the workload with telemetry off, in as many rounds as
// --seconds holds, and reports the end-to-end metrics. --trace 1 runs its
// first round twice on the same seed — untraced, then with a telemetry hub
// and benchmark spans attached — and reports the per-layer metrics; the
// spans are written to <span-dir> as JSONL. Every
// answer is checked; the last stdout line is the JSON result, and a wrong
// or missing answer makes the exit code nonzero.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "report.h"
#include "workloads.h"

namespace {

int usage(const std::string& problem) {
  std::cerr << "stackbench: " << problem << "\n"
            << "usage: stackbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--span-dir <dir>]\n"
            << "workloads:";
  for (const std::string& name : stackbench::workload_names()) {
    std::cerr << " " << name;
  }
  std::cerr << "\n";
  return 2;
}

bool parse_number(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return !text.empty() && end != nullptr && *end == '\0';
}

void report_failures(const stackbench::Run& run, const char* pass) {
  for (const std::string& failure : run.failures) {
    std::cerr << "FAILED (" << pass << "): " << failure << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string span_dir = ".";
  double seed = -1.0;
  double seconds = 50.0;
  double trace = 0.0;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    bool ok = true;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--span-dir") {
      span_dir = value;
    } else if (flag == "--seed") {
      ok = parse_number(value, &seed) && seed >= 0.0;
    } else if (flag == "--seconds") {
      ok = parse_number(value, &seconds) && seconds > 0.0;
    } else if (flag == "--trace") {
      ok = parse_number(value, &trace) && (trace == 0.0 || trace == 1.0);
    } else {
      return usage("unknown option " + flag);
    }
    if (!ok) return usage("bad value '" + value + "' for " + flag);
  }
  if (!stackbench::is_workload(workload)) {
    return usage("unknown workload '" + workload + "'");
  }
  if (seed < 0.0) return usage("--seed is required");

  stackbench::Config config;
  config.seed = static_cast<std::uint64_t>(seed);
  config.seconds = seconds;
  config.first_round_only = trace == 1.0;

  try {
    const stackbench::Run plain = stackbench::run_workload(workload, config);
    report_failures(plain, "untraced");
    std::uint64_t attempted = plain.attempted;
    std::uint64_t failed = plain.failed;
    std::vector<stackbench::Metric> metrics;
    if (trace == 0.0) {
      metrics = stackbench::end_to_end_metrics(plain,
                                               stackbench::peak_rss_mb());
      std::cout << "{\"tails\": " << stackbench::tails_json(plain) << "}\n";
    } else {
      berkmin::telemetry::Telemetry hub;
      stackbench::SpanRecorder spans;
      stackbench::Config traced_config = config;
      traced_config.hub = &hub;
      traced_config.spans = &spans;
      const stackbench::Run traced =
          stackbench::run_workload(workload, traced_config);
      report_failures(traced, "traced");
      attempted += traced.attempted;
      failed += traced.failed;
      std::vector<std::string> nondeterministic;
      metrics = stackbench::per_layer_metrics(plain, traced, hub, spans,
                                              &nondeterministic);
      for (const std::string& name : nondeterministic) {
        std::cerr << "NON-DETERMINISTIC counter: " << name << "\n";
      }
      const std::string path = span_dir + "/" + workload + "-seed" +
                               std::to_string(config.seed) + ".spans.jsonl";
      if (!spans.write_jsonl(path)) {
        std::cerr << "stackbench: cannot write spans to " << path << "\n";
        return 1;
      }
      std::cout << "{\"spans\": \"" << path << "\", \"span_count\": "
                << spans.spans().size() << "}\n";
    }
    const bool correct = failed == 0;
    std::cout << stackbench::result_json(correct, attempted, failed, metrics)
              << std::endl;
    return correct ? 0 : 1;
  } catch (const std::exception& ex) {
    std::cerr << "stackbench: " << ex.what() << "\n";
    return 1;
  }
}
