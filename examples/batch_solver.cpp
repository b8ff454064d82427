// Batch SAT solving over the time-sliced SolverService: read a manifest
// of instances, multiplex them over one worker pool, and stream one JSON
// result object per job (JSONL) as jobs finish.
//
//   ./build/examples/batch_solver manifest.txt --pool 4 --slice-conflicts 2000
//   ./build/examples/batch_solver manifest.txt --deadline-ms 500 --check
//   ./build/examples/batch_solver manifest.txt --check-proofs \
//       --drat proofs/ --unsat-core cores/
//
// Manifest format: one instance per line, '#' starts a comment.
//   <spec> [key=value ...]
// where <spec> is a generator spec ("hole:8", "rand3:60:258:1", see
// --list-generators of dimacs_solver) or a DIMACS path (use "file:<path>"
// to force file interpretation). Per-job keys override the global flags:
//   name=<str> deadline-ms=<ms> conflicts=<int> threads=<int>
//   priority=<int> assume=<d1,d2,...>   (DIMACS literals)
// Values are validated: a trailing character, a negative deadline or
// conflict budget, threads below 1, or an assumption that is 0 or names a
// variable outside the entry's formula exits 1, naming the key; the
// flags that set the defaults are held to the same rules.
//
// Exit codes: 0 = every job reached a terminal state (and --check, if
// given, found no disagreement), 1 = manifest/usage error or a mismatch.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include <thread>

#include "cnf/dimacs.h"
#include "cnf/icnf.h"
#include "core/solver.h"
#include "gen/registry.h"
#include "proof/drat_checker.h"
#include "proof/drat_file.h"
#include "robustness_flags.h"
#include "service/solver_service.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"
#include "util/cli.h"
#include "util/memory_budget.h"

using namespace berkmin;

namespace {

struct ManifestEntry {
  std::string name;
  Cnf cnf;
  std::vector<Lit> assumptions;
  service::JobLimits limits;
  // "icnf:<path>" entries: an incremental push/pop script driven through a
  // persistent service session instead of a one-shot job.
  bool is_script = false;
  icnf::Script script;
};

std::string result_json(const service::JobResult& result, int model_valid) {
  std::ostringstream out;
  out << "{\"id\":" << result.id << ",\"name\":\"";
  telemetry::write_json_escaped(out, result.name);
  out << "\",\"status\":\"" << to_string(result.status) << "\",\"outcome\":\""
      << to_string(result.outcome) << "\",\"slices\":" << result.slices
      << ",\"preemptions\":" << result.preemptions
      << ",\"conflicts\":" << result.conflicts
      << ",\"decisions\":" << result.decisions
      << ",\"propagations\":" << result.propagations
      << ",\"learned\":" << result.learned_clauses
      << ",\"dup_binaries_skipped\":" << result.duplicate_binaries_skipped
      << ",\"queue_s\":" << result.queue_seconds
      << ",\"solve_s\":" << result.solve_seconds
      << ",\"wall_s\":" << result.wall_seconds;
  if (model_valid >= 0) {
    out << ",\"model_valid\":" << (model_valid ? "true" : "false");
  }
  if (result.proof_checked) {
    out << ",\"proof_valid\":" << (result.proof_valid ? "true" : "false")
        << ",\"proof_steps\":" << result.proof.size();
  }
  if (!result.unsat_core.empty()) {
    out << ",\"core_clauses\":" << result.unsat_core.size();
  }
  if (result.status == SolveStatus::unsatisfiable &&
      !result.failed_assumptions.empty()) {
    // The failed-assumption core: these assumptions alone already clash.
    out << ",\"failed_assumptions\":[";
    for (std::size_t i = 0; i < result.failed_assumptions.size(); ++i) {
      out << (i == 0 ? "" : ",") << to_dimacs(result.failed_assumptions[i]);
    }
    out << "]";
  }
  if (!result.error.empty()) {
    out << ",\"error\":\"";
    telemetry::write_json_escaped(out, result.error);
    out << "\"";
  }
  out << "}";
  return out.str();
}

// Reads all of `text` as a T, as the DIMACS reader does: false on an
// empty token, trailing characters, a sign an unsigned T cannot hold, or
// overflow.
template <typename T>
bool read_number(const std::string& text, T* out) {
  const char* last = text.data() + text.size();
  const auto [end, error] = std::from_chars(text.data(), last, *out);
  return !text.empty() && error == std::errc{} && end == last;
}

// Resolves a manifest spec into the entry's formula or script. Returns
// false with *error set when the spec names nothing readable.
bool load_spec(const std::string& spec, ManifestEntry* entry,
               std::string* error) {
  if (spec.rfind("icnf:", 0) == 0) {
    const std::string path = spec.substr(5);
    icnf::ParseResult parsed = icnf::read_checked_file(path);
    if (!parsed.ok()) {
      *error = parsed.first_error();
      return false;
    }
    entry->script = std::move(parsed.script);
    entry->is_script = true;
    entry->name = path;
    return true;
  }

  if (spec.rfind("file:", 0) == 0) {
    const std::string path = spec.substr(5);
    try {
      entry->cnf = dimacs::read_file(path);
    } catch (const std::exception& ex) {
      *error = ex.what();
      return false;
    }
    entry->name = path;
    return true;
  }

  std::string gen_error;
  if (auto instance = gen::generate_from_spec(spec, &gen_error)) {
    entry->cnf = std::move(instance->cnf);
    entry->name = instance->name;
    return true;
  }
  // Not a known generator spec: fall back to a DIMACS path.
  try {
    entry->cnf = dimacs::read_file(spec);
  } catch (const std::exception& ex) {
    *error = "'" + spec + "' is neither a generator spec (" + gen_error +
             ") nor a readable DIMACS file (" + ex.what() + ")";
    return false;
  }
  entry->name = spec;
  return true;
}

// Parses one manifest line into an entry. Returns false with *error set
// on malformed lines, including a value that is not a whole number of the
// key's kind: a negative deadline or conflict budget, threads below 1, or
// an assumption that is 0 or names a variable outside the formula.
bool parse_entry(const std::string& line, const service::JobLimits& defaults,
                 ManifestEntry* entry, std::string* error) {
  std::istringstream tokens(line);
  std::string spec;
  tokens >> spec;
  if (!load_spec(spec, entry, error)) return false;
  entry->limits = defaults;
  const int num_vars = entry->cnf.num_vars();

  std::string token;
  while (tokens >> token) {
    const auto eq = token.find('=');
    if (eq == std::string::npos) {
      *error = "malformed manifest token '" + token + "' (want key=value)";
      return false;
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    service::JobLimits& limits = entry->limits;
    bool valid = true;
    if (key == "name") {
      entry->name = value;
    } else if (key == "deadline-ms") {
      double ms = 0.0;
      valid = read_number(value, &ms) && std::isfinite(ms) && ms >= 0.0;
      limits.deadline_seconds = ms / 1000.0;
    } else if (key == "conflicts") {
      valid = read_number(value, &limits.max_conflicts);
    } else if (key == "threads") {
      valid = read_number(value, &limits.threads) && limits.threads >= 1;
    } else if (key == "priority") {
      valid = read_number(value, &limits.priority);
    } else if (key == "assume") {
      for (std::size_t begin = 0; valid; ) {
        const std::size_t comma = value.find(',', begin);
        int literal = 0;
        valid = read_number(value.substr(begin, comma - begin), &literal) &&
                literal != 0 && literal >= -num_vars && literal <= num_vars;
        if (valid) entry->assumptions.push_back(from_dimacs(literal));
        if (comma == std::string::npos) break;
        begin = comma + 1;
      }
    } else {
      *error = "unknown manifest key '" + key + "'";
      return false;
    }
    if (!valid) {
      *error = "bad value for manifest key '" + key + "': " + value;
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  // The flags that set the manifest keys' defaults (deadline-ms,
  // conflicts, threads) follow the keys' rules.
  args.add_option("pool", "4", "service worker threads",
                  {.min = 1, .max = kMaxThreads});
  args.add_option("slice-conflicts", "2000",
                  "conflicts per time slice (0 = run each job to completion)",
                  {.min = 0});
  args.add_option("deadline-ms", "0.0",
                  "default per-job wall-clock deadline in ms (0 = none)",
                  {.min = 0});
  args.add_option("conflicts", "0",
                  "default per-job total conflict budget (0 = none)",
                  {.min = 0});
  args.add_option("threads", "1",
                  "default per-job portfolio escalation (>1 races that many "
                  "diversified workers inside each slice)",
                  {.min = 1, .max = kMaxThreads});
  args.add_option("max-pending", "1024", "bounded admission queue size",
                  {.min = 1});
  args.add_option("watchdog-ms", "0.0", "per-slice wall-clock limit, "
                  "measured from the slice's dispatch (engine load and "
                  "stalls count) and enforced at the solver's clock check: "
                  "the slice is preempted with its search state kept and "
                  "rescheduled (0 = off, else at least 1 ms)", {.min = 0});
  args.add_option("slice-retries", "2", "times a job whose slice died (a "
                  "crashed engine or injected fault) is retried on a fresh "
                  "engine before reporting an error",
                  {.min = 0, .max = kMaxInt});
  robustness::add_flags(&args);
  args.add_option("drat", "", "directory for per-job DRAT traces "
                  "(<dir>/job-<id>.drat, written for UNSAT jobs)");
  args.add_flag("binary-drat", "write traces in drat-trim's binary format");
  args.add_option("unsat-core", "", "directory for per-job UNSAT cores "
                  "(<dir>/job-<id>.core.cnf; implies --check-proofs)");
  args.add_flag("check-proofs", "verify every UNSAT trace with the in-tree "
                "checker inside the service; JSONL gains proof_valid and the "
                "run fails on any invalid proof");
  args.add_flag("check", "re-solve each instance with a plain single-threaded "
                "Solver and fail on any verdict mismatch");
  args.add_flag("stats", "append a summary JSON line with service stats");
  args.add_option("metrics-out", "", "write the service metrics snapshot on "
                  "exit: latency histograms (slice, job wait, session solve), "
                  "hub counters and per-job totals; a .prom extension selects "
                  "Prometheus text exposition, anything else JSON with a "
                  "per_job array");
  args.add_option("trace-out", "", "write the event trace on exit: per-worker "
                  "rings (slices, restarts, reductions) plus the scheduler's "
                  "job/session lifecycle ring");
  args.add_option("trace-format", "chrome", "trace file format: chrome "
                  "(chrome://tracing / Perfetto) or jsonl");
  args.add_flag("help", "show this help");

  if (!args.parse()) {
    std::cerr << "error: " << args.error() << "\n";
    return 1;
  }
  if (args.has_flag("help")) {
    std::cout << args.help("batch_solver — time-sliced batch solving over one "
                           "thread pool");
    return 0;
  }
  if (args.positional().empty()) {
    std::cerr << "error: no manifest file given\n";
    return 1;
  }

  std::ifstream manifest(args.positional()[0]);
  if (!manifest) {
    std::cerr << "error: cannot open manifest '" << args.positional()[0]
              << "'\n";
    return 1;
  }

  service::JobLimits defaults;
  defaults.deadline_seconds = args.get_double("deadline-ms") / 1000.0;
  defaults.max_conflicts =
      static_cast<std::uint64_t>(args.get_int("conflicts"));
  defaults.threads = static_cast<int>(args.get_int("threads"));

  std::vector<ManifestEntry> entries;
  std::string line;
  int line_number = 0;
  while (std::getline(manifest, line)) {
    ++line_number;
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    ManifestEntry entry;
    std::string error;
    if (!parse_entry(line.substr(first), defaults, &entry, &error)) {
      std::cerr << "error: manifest line " << line_number << ": " << error
                << "\n";
      return 1;
    }
    entries.push_back(std::move(entry));
  }
  if (entries.empty()) {
    std::cerr << "error: manifest holds no instances\n";
    return 1;
  }

  const std::string drat_dir = args.get_string("drat");
  const std::string core_dir = args.get_string("unsat-core");
  service::JobProofOptions proof_options;
  proof_options.log = !drat_dir.empty();
  proof_options.check = args.has_flag("check-proofs") || !core_dir.empty();
  proof_options.core = !core_dir.empty();
  const proof::DratFormat drat_format = args.has_flag("binary-drat")
                                            ? proof::DratFormat::binary
                                            : proof::DratFormat::text;
  try {
    if (!drat_dir.empty()) std::filesystem::create_directories(drat_dir);
    if (!core_dir.empty()) std::filesystem::create_directories(core_dir);
  } catch (const std::exception& ex) {
    std::cerr << "error: " << ex.what() << "\n";
    return 1;
  }

  const std::string metrics_path = args.get_string("metrics-out");
  const std::string trace_path = args.get_string("trace-out");
  const std::string trace_format_name = args.get_string("trace-format");
  if (trace_format_name != "chrome" && trace_format_name != "jsonl") {
    std::cerr << "error: unknown --trace-format '" << trace_format_name
              << "' (chrome or jsonl)\n";
    return 1;
  }
  std::unique_ptr<telemetry::Telemetry> hub;
  if (!metrics_path.empty() || !trace_path.empty()) {
    hub = std::make_unique<telemetry::Telemetry>();
  }

  // Resource governor + fault injection (--memory-budget / --fault-*),
  // shared by every engine the service creates. Outlives the service.
  std::unique_ptr<util::MemoryBudget> budget;
  std::unique_ptr<util::FaultInjector> injector;
  if (!robustness::budget_from_args(args, &budget) ||
      !robustness::injector_from_args(args, &injector)) {
    return 1;
  }
  robustness::InstalledInjector installed;
  installed.install(injector.get());
  if (hub != nullptr) {
    if (budget != nullptr) {
      budget->attach_telemetry(hub->metrics().gauge("memory_budget_bytes"),
                               hub->metrics().counter("degrade_events"));
    }
    if (injector != nullptr) {
      injector->set_counter(hub->metrics().counter("faults_injected"));
    }
  }

  service::ServiceOptions sopts;
  sopts.num_workers = static_cast<int>(args.get_int("pool"));
  sopts.slice_conflicts =
      static_cast<std::uint64_t>(args.get_int("slice-conflicts"));
  sopts.max_pending = static_cast<std::size_t>(args.get_int("max-pending"));
  sopts.telemetry = hub.get();
  sopts.watchdog_seconds = args.get_double("watchdog-ms") / 1000.0;
  sopts.max_slice_retries = static_cast<int>(args.get_int("slice-retries"));
  sopts.memory_budget = budget.get();
  service::SolverService solving(sopts);

  // One-shot jobs are submitted first (in manifest order), so their ids
  // are 1..R and id-1 indexes this list; incremental scripts run later on
  // their own driver threads and report through those instead.
  std::vector<const ManifestEntry*> regular;
  std::vector<const ManifestEntry*> scripts;
  for (const ManifestEntry& entry : entries) {
    (entry.is_script ? scripts : regular).push_back(&entry);
  }

  // Stream results as they finish.
  std::mutex output_mutex;
  bool model_failure = false;
  bool proof_failure = false;
  solving.set_completion_callback([&](const service::JobResult& result) {
    if (result.session != service::invalid_session) return;  // driver reports
    int model_valid = -1;
    if (result.status == SolveStatus::satisfiable) {
      const ManifestEntry& entry = *regular[result.id - 1];
      model_valid = entry.cnf.is_satisfied_by(result.model) ? 1 : 0;
      for (const Lit assumption : entry.assumptions) {
        if (value_of_literal(result.model[assumption.var()], assumption) !=
            Value::true_value) {
          model_valid = 0;
        }
      }
    }
    // Per-job proof artifacts land in their own files (ids are unique, so
    // no lock is needed for the writes themselves).
    bool job_proof_failed = result.proof_checked && !result.proof_valid;
    if (result.status == SolveStatus::unsatisfiable) {
      const std::string stem = "job-" + std::to_string(result.id);
      std::string error;
      if (!drat_dir.empty() && result.proof.ends_with_empty() &&
          !proof::write_drat_file(drat_dir + "/" + stem + ".drat",
                                  result.proof, drat_format, &error)) {
        std::cerr << "error: " << error << "\n";
        job_proof_failed = true;
      }
      if (!core_dir.empty() && !result.unsat_core.empty()) {
        const ManifestEntry& entry = *regular[result.id - 1];
        try {
          dimacs::write_file(
              core_dir + "/" + stem + ".core.cnf",
              proof::DratChecker::core_formula(entry.cnf, result.unsat_core),
              "unsat core extracted by batch_solver for " + entry.name);
        } catch (const std::exception& ex) {
          std::cerr << "error: " << ex.what() << "\n";
          job_proof_failed = true;
        }
      }
    }
    std::lock_guard<std::mutex> lock(output_mutex);
    if (model_valid == 0) model_failure = true;
    if (job_proof_failed) proof_failure = true;
    std::cout << result_json(result, model_valid) << "\n" << std::flush;
  });

  // A refused submission (shutdown or a full queue that stopped accepting)
  // must not vanish from the JSONL stream: every manifest entry gets
  // exactly one record, refused ones with outcome "refused", and any
  // refusal forces a nonzero exit below.
  bool submit_refused = false;
  for (const ManifestEntry* entry : regular) {
    service::JobRequest request;
    request.name = entry->name;
    request.cnf = entry->cnf;  // keep a copy for --check / model validation
    request.assumptions = entry->assumptions;
    request.limits = entry->limits;
    request.proof = proof_options;
    if (!solving.submit(std::move(request))) {
      std::lock_guard<std::mutex> lock(output_mutex);
      submit_refused = true;
      std::cout << "{\"name\":\"";
      telemetry::write_json_escaped(std::cout, entry->name);
      std::cout << "\",\"status\":\"unknown\",\"outcome\":\"refused\","
                << "\"error\":\"service refused the job (shutdown?)\"}\n"
                << std::flush;
      std::cerr << "error: service refused job '" << entry->name << "'\n";
    }
  }

  // Incremental scripts: one driver thread per script replays its ops
  // against a persistent service session — each clause or group op through
  // session_apply, each solve a sliced session query — and streams one
  // JSONL line per query. The sessions multiplex over the same worker pool
  // as the one-shot jobs above.
  int script_failures = 0;
  // Session answers, kept for the summary and the per-job metrics
  // (wait_all() returns only the one-shot results).
  std::vector<service::JobResult> session_results;
  std::vector<std::thread> drivers;
  drivers.reserve(scripts.size());
  for (const ManifestEntry* entry : scripts) {
    drivers.emplace_back([&, entry] {
      service::SessionRequest sreq;
      sreq.name = entry->name;
      sreq.threads = entry->limits.threads;
      if (proof_options.verify() && sreq.threads == 1) {
        sreq.proof.log = true;
        sreq.proof.check = true;
      }
      const auto sid = solving.open_session(sreq);
      if (!sid.has_value()) {
        std::lock_guard<std::mutex> lock(output_mutex);
        std::cout << "{\"name\":\"";
        telemetry::write_json_escaped(std::cout, entry->name);
        std::cout << "\",\"status\":\"unknown\",\"outcome\":\"refused\","
                  << "\"error\":\"service refused the session (shutdown?)\"}\n"
                  << std::flush;
        std::cerr << "error: " << entry->name << ": session refused\n";
        ++script_failures;
        return;
      }
      // The formula the session sees, for model validation and --check.
      icnf::ActiveFormula active;
      service::JobResult result;
      const icnf::Script& script = entry->script;
      for (std::size_t i = 0; i < script.size(); ++i) {
        const icnf::Op op = script.op(i);
        const bool ok =
            op.kind == icnf::Op::Kind::solve
                ? solving.session_query(*sid, op.lits, entry->limits, result)
                : solving.session_apply(*sid, op).has_value();
        if (!ok) {
          std::lock_guard<std::mutex> lock(output_mutex);
          std::cerr << "error: " << entry->name << ": session operation "
                    << i + 1 << " (" << icnf::to_string(op.kind)
                    << ") failed\n";
          ++script_failures;
          break;
        }
        if (op.kind != icnf::Op::Kind::solve) {
          (void)icnf::apply(active, op);
          continue;
        }
        int model_valid = -1;
        if (result.status == SolveStatus::satisfiable) {
          model_valid = active.is_model(result.model, op.lits) ? 1 : 0;
        }
        bool query_mismatch = false;
        if (args.has_flag("check") && result.status != SolveStatus::unknown) {
          Solver reference;
          reference.load(active.formula());
          query_mismatch =
              reference.solve_with_assumptions(op.lits) != result.status;
        }
        std::lock_guard<std::mutex> lock(output_mutex);
        if (model_valid == 0) model_failure = true;
        if (result.proof_checked && !result.proof_valid) proof_failure = true;
        if (query_mismatch) {
          ++script_failures;
          std::cerr << "MISMATCH " << result.name << ": session says "
                    << to_string(result.status)
                    << ", scratch solver disagrees\n";
        }
        std::cout << result_json(result, model_valid) << "\n" << std::flush;
        session_results.push_back(result);
      }
      // Close unconditionally: an abandoned session would pin its engine
      // (and any accumulated proof trace) until service destruction.
      solving.close_session(*sid);
    });
  }
  for (std::thread& driver : drivers) driver.join();

  std::vector<service::JobResult> results = solving.wait_all();
  solving.shutdown(service::SolverService::Shutdown::drain);
  results.insert(results.end(), session_results.begin(),
                 session_results.end());
  std::ranges::sort(results, {}, &service::JobResult::id);

  int mismatches = script_failures;
  if (args.has_flag("check")) {
    std::size_t checked = 0;
    for (const service::JobResult& result : results) {
      if (result.status == SolveStatus::unknown ||
          result.session != service::invalid_session) {
        continue;
      }
      ++checked;
      const ManifestEntry& entry = *regular[result.id - 1];
      Solver reference;
      reference.load(entry.cnf);
      const SolveStatus expected =
          reference.solve_with_assumptions(entry.assumptions);
      if (expected != result.status) {
        ++mismatches;
        std::cerr << "MISMATCH " << entry.name << ": service says "
                  << to_string(result.status) << ", plain solver says "
                  << to_string(expected) << "\n";
      }
    }
    // Session queries were checked per-query on their driver threads;
    // only the one-shot jobs are re-solved here.
    std::cerr << "c check: " << checked - (mismatches - script_failures)
              << "/" << checked << " one-shot verdicts agree, "
              << script_failures << " session query failures\n";
  }

  if (args.has_flag("stats")) {
    const service::ServiceStats stats = solving.stats();
    std::uint64_t dup_binaries = 0;
    std::uint64_t proofs_checked = 0;
    std::uint64_t proofs_valid = 0;
    for (const service::JobResult& result : results) {
      dup_binaries += result.duplicate_binaries_skipped;
      if (result.proof_checked) {
        ++proofs_checked;
        if (result.proof_valid) ++proofs_valid;
      }
    }
    std::cout << "{\"summary\":true";
    for (const service::ServiceCounter& counter : service::kServiceCounters) {
      std::cout << ",\"" << counter.field << "\":" << stats.*counter.member;
    }
    std::cout << ",\"duplicate_binaries_skipped\":" << dup_binaries
              << ",\"proofs_checked\":" << proofs_checked
              << ",\"proofs_valid\":" << proofs_valid
              << ",\"solve_s\":" << stats.solve_seconds << "}\n";
  }

  bool telemetry_failure = false;
  if (!metrics_path.empty()) {
    const telemetry::MetricsSnapshot metrics = solving.metrics_snapshot();
    std::ofstream out(metrics_path);
    if (!out) {
      std::cerr << "error: cannot open '" << metrics_path << "' for metrics\n";
      telemetry_failure = true;
    } else if (metrics_path.ends_with(".prom")) {
      out << metrics.to_prometheus();
    } else {
      // Aggregate snapshot plus one object per finished job, so offline
      // analysis can correlate queue/solve latencies with job shape.
      out << "{\"metrics\":" << metrics.to_json() << ",\"per_job\":[";
      for (std::size_t i = 0; i < results.size(); ++i) {
        out << (i == 0 ? "" : ",") << result_json(results[i], -1);
      }
      out << "]}\n";
    }
  }
  if (!trace_path.empty()) {
    std::string error;
    if (!hub->write_trace_file(trace_path,
                               trace_format_name == "jsonl"
                                   ? telemetry::TraceFormat::jsonl
                                   : telemetry::TraceFormat::chrome,
                               &error)) {
      std::cerr << "error: " << error << "\n";
      telemetry_failure = true;
    }
  }

  return (mismatches > 0 || model_failure || proof_failure ||
          telemetry_failure || submit_refused)
             ? 1
             : 0;
}
