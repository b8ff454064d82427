// Safety model checking over generated transition systems: BMC and
// IC3/PDR driving the incremental solver, an in-process portfolio, or a
// SolverService session as a real workload.
//
//   ./build/examples/model_checker --ts safe:12 --engine both --certify
//   ./build/examples/model_checker --ts unsafe:4 --engine bmc --bound 12
//   ./build/examples/model_checker --ts safe:3 --engine both --threads 4
//   ./build/examples/model_checker --ts latch:7 --engine ic3 --service --threads 2
//
// --ts specs:
//   safe:<seed>[:latches[:inputs]]     bad unreachable (BFS-certified)
//   unsafe:<seed>[:latches[:inputs]]   bad reachable within the bound
//   latch:<seed>[:latches[:inputs]]    latch-heavy safe variant
//
// Exit codes: 0 verdicts OK (validated/certified as requested), 1 usage
// error, 2 a validation or certification failed, 3 engines disagree.
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/options.h"
#include "engines/bmc.h"
#include "engines/ic3.h"
#include "gen/safety.h"
#include "portfolio/portfolio.h"
#include "service/solver_service.h"
#include "telemetry/trace.h"
#include "util/cli.h"
#include "util/timer.h"

using namespace berkmin;
using namespace berkmin::engines;

namespace {

bool parse_ts_spec(const std::string& spec, int bound, gen::SafetyParams* out,
                   std::string* error) {
  std::vector<std::string> parts;
  std::string current;
  for (const char ch : spec) {
    if (ch == ':') {
      parts.push_back(current);
      current.clear();
    } else {
      current += ch;
    }
  }
  parts.push_back(current);

  gen::SafetyParams p;
  p.cycles = bound;
  if (parts[0] == "safe") {
    p.safe = true;
  } else if (parts[0] == "unsafe") {
    p.safe = false;
  } else if (parts[0] == "latch") {
    p.safe = true;
    p.latch_heavy = true;
    p.num_latches = 8;
    p.num_inputs = 3;
  } else {
    *error = "unknown --ts family '" + parts[0] + "' (safe|unsafe|latch)";
    return false;
  }
  try {
    if (parts.size() > 1) p.seed = std::stoull(parts[1]);
    if (parts.size() > 2) p.num_latches = std::stoi(parts[2]);
    if (parts.size() > 3) p.num_inputs = std::stoi(parts[3]);
  } catch (const std::exception&) {
    *error = "non-numeric field in --ts spec '" + spec + "'";
    return false;
  }
  *out = p;
  return true;
}

void print_result(const std::string& engine, const EngineResult& result,
                  double seconds) {
  std::cout << engine << ": " << to_string(result.verdict)
            << " (bound " << result.bound << ")";
  if (result.cex.has_value()) {
    std::cout << ", counterexample depth " << result.cex->depth()
              << (result.cex_validated ? " (replayed in simulation)"
                                       : " (REPLAY FAILED)");
  }
  if (result.verdict == Verdict::safe_invariant) {
    std::cout << ", invariant of " << result.invariant.size() << " clauses";
  }
  if (result.certified) std::cout << ", certified";
  if (!result.error.empty()) std::cout << ", error: " << result.error;
  std::cout << "  [" << seconds << " s, " << result.stats.solves
            << " solves, " << result.stats.pushes << " pushes, "
            << result.stats.pops << " pops]\n";
}

void print_json(const std::string& engine, const EngineResult& result,
                double seconds) {
  std::cout << "{\"engine\":\"" << engine << "\",\"verdict\":\""
            << to_string(result.verdict) << "\",\"bound\":" << result.bound
            << ",\"cex_depth\":"
            << (result.cex.has_value() ? result.cex->depth() : -1)
            << ",\"cex_validated\":" << (result.cex_validated ? "true" : "false")
            << ",\"certified\":" << (result.certified ? "true" : "false")
            << ",\"invariant_clauses\":" << result.invariant.size()
            << ",\"solves\":" << result.stats.solves
            << ",\"pushes\":" << result.stats.pushes
            << ",\"pops\":" << result.stats.pops
            << ",\"obligations\":" << result.stats.obligations
            << ",\"seconds\":" << seconds;
  if (!result.error.empty()) {
    std::cout << ",\"error\":\"";
    telemetry::write_json_escaped(std::cout, result.error);
    std::cout << "\"";
  }
  std::cout << "}\n";
}

// A verdict is acceptable when it is conclusive and its evidence checks
// out (trace replay for unsafe; certification when requested).
bool verdict_ok(const EngineResult& result, bool certify) {
  switch (result.verdict) {
    case Verdict::unsafe:
      return result.cex_validated;
    case Verdict::safe_bounded:
    case Verdict::safe_invariant:
      return !certify || result.certified;
    case Verdict::unknown:
      return false;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  args.add_option("ts", "safe:1", "transition-system spec (see header)");
  args.add_option("engine", "both", "bmc | ic3 | both");
  args.add_option("bound", "10", "BMC bound / generator cycle window",
                  {.min = 0, .max = kMaxInt});
  args.add_option("max-frames", "64", "IC3 frontier limit",
                  {.min = 1, .max = kMaxInt});
  args.add_flag("certify",
                "re-prove safe verdicts on a fresh DRAT-checked solver");
  args.add_flag("service", "run via a SolverService incremental session");
  args.add_option("threads", "1",
                  "solver threads: a racing portfolio when > 1, in process "
                  "or in the --service session",
                  {.min = 1, .max = kMaxThreads});
  args.add_flag("json", "emit one JSON object per engine run");
  args.add_flag("help", "show this help");
  const char* const description =
      "model_checker — BMC / IC3 over generated safety properties";
  if (!args.parse()) {
    std::cerr << "error: " << args.error() << "\n" << args.help(description);
    return 1;
  }
  if (args.has_flag("help")) {
    std::cout << args.help(description);
    return 0;
  }

  const std::string engine = args.get_string("engine");
  if (engine != "bmc" && engine != "ic3" && engine != "both") {
    std::cerr << "error: --engine must be bmc, ic3 or both\n";
    return 1;
  }
  const int bound = static_cast<int>(args.get_int("bound"));
  const bool certify = args.has_flag("certify");
  const bool json = args.has_flag("json");

  gen::SafetyParams params;
  std::string spec_error;
  if (!parse_ts_spec(args.get_string("ts"), bound, &params, &spec_error)) {
    std::cerr << "error: " << spec_error << "\n";
    return 1;
  }

  std::unique_ptr<TransitionSystem> ts;
  try {
    ts = std::make_unique<TransitionSystem>(gen::safety_system(params));
  } catch (const std::exception& ex) {
    std::cerr << "error: " << ex.what() << "\n";
    return 1;
  }
  if (!json) {
    std::cout << "transition system: " << ts->num_latches() << " latches, "
              << ts->num_inputs() << " inputs ("
              << (params.safe ? "safe" : "unsafe") << " by construction)\n";
  }

  // The engines drive a service session (--service) or an in-process
  // engine; either is make_engine's racing portfolio when --threads > 1.
  const int threads = static_cast<int>(args.get_int("threads"));
  std::unique_ptr<service::SolverService> service;
  int exit_code = 0;
  std::vector<Verdict> verdicts;
  const auto run_engine = [&](const std::string& name) {
    std::unique_ptr<SatEngine> sat;
    std::unique_ptr<EngineBackend> backend;
    if (args.has_flag("service")) {
      if (service == nullptr) {
        service = std::make_unique<service::SolverService>(
            service::ServiceOptions{.num_workers = 2});
      }
      backend = std::make_unique<SessionBackend>(
          *service, service::SessionRequest{.name = name, .threads = threads});
    } else {
      sat = portfolio::make_engine(SolverOptions::berkmin(), threads);
      backend = std::make_unique<SolverBackend>(*sat);
    }

    WallTimer timer;
    EngineResult result;
    if (name == "bmc") {
      result = BmcEngine(*ts, *backend, {.bound = bound}).run();
    } else {
      Ic3Options options;
      options.max_frames = static_cast<int>(args.get_int("max-frames"));
      result = Ic3Engine(*ts, *backend, options).run();
    }
    if (certify) (void)engines::certify(*ts, result);
    const double seconds = timer.seconds();
    if (json) {
      print_json(name, result, seconds);
    } else {
      print_result(name, result, seconds);
    }
    if (!verdict_ok(result, certify)) exit_code = 2;
    verdicts.push_back(result.verdict);
  };

  if (engine == "bmc" || engine == "both") run_engine("bmc");
  if (engine == "ic3" || engine == "both") run_engine("ic3");

  if (verdicts.size() == 2) {
    const bool bmc_unsafe = verdicts[0] == Verdict::unsafe;
    const bool ic3_unsafe = verdicts[1] == Verdict::unsafe;
    // safe_bounded vs safe_invariant agree; unsafe must match unsafe.
    if (bmc_unsafe != ic3_unsafe && verdicts[0] != Verdict::unknown &&
        verdicts[1] != Verdict::unknown) {
      std::cerr << "error: engines disagree (bmc " << to_string(verdicts[0])
                << ", ic3 " << to_string(verdicts[1]) << ")\n";
      return 3;
    }
  }
  return exit_code;
}
