// A complete command-line SAT solver over DIMACS files (or generated
// instances), in the mold of the released BerkMin56 binary.
//
//   ./build/examples/dimacs_solver formula.cnf
//   ./build/examples/dimacs_solver --generate hole:8 --preset chaff
//   ./build/examples/dimacs_solver formula.cnf --drat proof.out --stats
//   ./build/examples/dimacs_solver --generate hole:6 --threads 4 \
//       --drat proof.out --unsat-core core.cnf --check-model
//
// Exit codes follow the SAT-competition convention: 10 = satisfiable,
// 20 = unsatisfiable, 0 = unknown/budget, 1 = usage error or failed
// --check-model / proof verification.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>

#include "cnf/dimacs.h"
#include "cnf/icnf.h"
#include "core/inprocess.h"
#include "core/solver.h"
#include "gen/registry.h"
#include "portfolio/portfolio.h"
#include "proof/drat_checker.h"
#include "proof/drat_file.h"
#include "proof/live_certifier.h"
#include "proof/proof_writer.h"
#include "robustness_flags.h"
#include "telemetry/telemetry.h"
#include "util/cli.h"
#include "util/memory_budget.h"
#include "util/timer.h"

using namespace berkmin;

namespace {

// Flushes the requested telemetry artifacts on destruction, so every exit
// path — including early errors — writes what was collected. A metrics
// path ending in ".prom" gets Prometheus text exposition, anything else
// the JSON snapshot.
struct TelemetryWriter {
  telemetry::Telemetry* hub = nullptr;
  std::string metrics_path;
  std::string trace_path;
  telemetry::TraceFormat format = telemetry::TraceFormat::chrome;

  ~TelemetryWriter() {
    if (hub == nullptr) return;
    if (!metrics_path.empty()) {
      std::ofstream out(metrics_path);
      if (!out) {
        std::cerr << "error: cannot open '" << metrics_path
                  << "' for metrics\n";
      } else {
        const telemetry::MetricsSnapshot snapshot = hub->snapshot();
        out << (metrics_path.ends_with(".prom") ? snapshot.to_prometheus()
                                                : snapshot.to_json());
      }
    }
    if (!trace_path.empty()) {
      std::string error;
      if (!hub->write_trace_file(trace_path, format, &error)) {
        std::cerr << "error: " << error << "\n";
      }
    }
  }
};

// --check-model: refuse to announce a model the formula rejects. Prints
// the SAT-competition "unknown" verdict on failure; the caller exits 1.
bool model_checks_out(const Cnf& cnf, const std::vector<Value>& model) {
  if (cnf.is_satisfied_by(model)) return true;
  std::cout << "s UNKNOWN\n";
  std::cerr << "error: model failed --check-model validation\n";
  return false;
}

// Verifies an UNSAT trace with the in-tree checker and writes the
// requested artifacts: the DRAT file and/or the original-clause
// unsatisfiable core as DIMACS. Returns false after printing an error when
// verification or a write fails.
bool certify_unsat(const Cnf& cnf, const proof::Proof& trace,
                   const std::string& drat_path, proof::DratFormat format,
                   const std::string& core_path,
                   const telemetry::SolverTelemetry* sink) {
  std::string error;
  if (!drat_path.empty() &&
      !proof::write_drat_file(drat_path, trace, format, &error)) {
    std::cerr << "error: " << error << "\n";
    return false;
  }
  if (core_path.empty()) return true;

  proof::DratChecker checker(cnf);
  checker.set_telemetry(sink);
  const proof::CheckResult check = checker.check(trace);
  if (!check.valid) {
    std::cerr << "error: proof failed verification (" << check.error
              << ") — refusing to extract a core\n";
    return false;
  }
  std::cout << "c proof: " << trace.size() << " steps, "
            << check.checked_adds << " additions verified, trimmed to "
            << checker.trimmed().num_adds() << " adds; core "
            << checker.core().size() << " of " << cnf.num_clauses()
            << " clauses\n";
  try {
    dimacs::write_file(core_path,
                       proof::DratChecker::core_formula(cnf, checker.core()),
                       "unsat core extracted by dimacs_solver");
  } catch (const std::exception& ex) {
    std::cerr << "error: " << ex.what() << "\n";
    return false;
  }
  std::cout << "c wrote core to " << core_path << "\n";
  return true;
}

// The selected preset with the CLI's per-run settings, or nullopt (after
// an error message) for an unknown preset name.
std::optional<SolverOptions> options_from_args(const ArgParser& args) {
  std::optional<SolverOptions> options =
      preset_by_name(args.get_string("preset"));
  if (!options) {
    std::cerr << "error: unknown preset '" << args.get_string("preset")
              << "' (" << preset_list() << ")\n";
    return std::nullopt;
  }
  options->seed = static_cast<std::uint64_t>(args.get_int("seed"));
  options->minimize_learned = args.has_flag("minimize");
  // Inprocessing defaults ON for the CLI (the library default is off so
  // embedders opt in); --no-inprocess restores the pure paper engine.
  options->inprocess.enabled = !args.has_flag("no-inprocess");
  return options;
}

// The engine both modes solve on, from portfolio::make_engine.
std::unique_ptr<SatEngine> engine_from_args(
    const ArgParser& args, const SolverOptions& options,
    telemetry::Telemetry* hub, const telemetry::SolverTelemetry* sink,
    util::MemoryBudget* mem_budget) {
  std::unique_ptr<SatEngine> engine = portfolio::make_engine(
      options, static_cast<int>(args.get_int("threads")),
      {.share_clauses = !args.has_flag("no-share"),
       .telemetry = hub,
       .memory_budget = mem_budget});
  engine->set_telemetry(sink);
  return engine;
}

// Scripted (.icnf) mode: replay an incremental script against one
// persistent engine, reporting one "s" line per "a" line. Every operation
// is applied through a proof::LiveCertifier, which attaches the DRAT trace
// (--drat) and, with --check-incremental, holds the live checker that
// certifies every UNSAT answer's failed-assumption core (¬core must be RUP
// over the checked trace); --check-incremental also validates every SAT
// model against the formula active at that moment (an icnf::ActiveFormula
// the same ops are applied to). Exit code follows the last answer
// (10/20/0); 1 on any error or failed check.
int run_scripted(const ArgParser& args, const std::string& path,
                 telemetry::Telemetry* hub,
                 const telemetry::SolverTelemetry* sink,
                 util::MemoryBudget* mem_budget) {
  icnf::ParseResult parsed = icnf::read_checked_file(path);
  if (!parsed.ok()) {
    std::cerr << "error: " << parsed.first_error() << "\n";
    return 1;
  }
  const icnf::Script script = std::move(parsed.script);

  const std::optional<SolverOptions> options = options_from_args(args);
  if (!options) return 1;

  Budget budget;
  budget.max_seconds = args.get_double("timeout");
  budget.max_conflicts = static_cast<std::uint64_t>(args.get_int("conflicts"));

  const int threads = static_cast<int>(args.get_int("threads"));
  const std::string drat_path = args.get_string("drat");
  const bool check = args.has_flag("check-incremental");
  const bool want_proof = check || !drat_path.empty();
  if (want_proof && threads > 1) {
    std::cerr << "error: incremental proofs need --threads 1 (a proof-"
                 "logging portfolio does not support push/pop clause "
                 "groups yet)\n";
    return 1;
  }

  const std::unique_ptr<SatEngine> engine =
      engine_from_args(args, *options, hub, sink, mem_budget);
  proof::LiveCertifier certifier(*engine, want_proof, check);
  certifier.set_telemetry(sink);
  icnf::ActiveFormula active;

  std::size_t solves = 0;
  SolveStatus last = SolveStatus::unknown;
  bool failed_check = false;
  std::size_t models_checked = 0;
  std::size_t proofs_checked = 0;
  for (std::size_t i = 0; i < script.size(); ++i) {
    const icnf::Op op = script.op(i);
    if (op.kind != icnf::Op::Kind::solve) {
      if (!icnf::apply(certifier, op)) {
        std::cerr << "error: op " << i + 1 << " (" << icnf::to_string(op.kind)
                  << ") refused by the engine\n";
        return 1;
      }
      (void)icnf::apply(active, op);
      continue;
    }
    ++solves;
    last = engine->solve_with_assumptions(op.lits, budget);
    std::cout << "c query " << solves << "\ns " << to_string(last) << "\n";
    if (last == SolveStatus::satisfiable && check) {
      ++models_checked;
      if (!active.is_model(engine->model(), op.lits)) {
        std::cerr << "error: query " << solves
                  << ": model failed validation\n";
        failed_check = true;
      }
    }
    if (last == SolveStatus::unsatisfiable && check) {
      ++proofs_checked;
      if (!certifier.answer_certified()) {
        std::cerr << "error: query " << solves
                  << ": incremental proof failed verification (the "
                     "failed core is not RUP over the checked trace)\n";
        failed_check = true;
      }
    }
  }

  if (!drat_path.empty()) {
    const proof::DratFormat format = args.has_flag("binary-drat")
                                         ? proof::DratFormat::binary
                                         : proof::DratFormat::text;
    std::string error;
    if (!proof::write_drat_file(drat_path, certifier.trace(), format,
                                &error)) {
      std::cerr << "error: " << error << "\n";
      return 1;
    }
  }
  if (args.has_flag("stats")) {
    const SolverStats& stats = engine->stats();
    std::cout << "c scripted: " << solves << " queries, groups pushed "
              << stats.groups_pushed << " popped " << stats.groups_popped
              << ", lemmas retained " << stats.pop_retained_learned
              << " dropped " << stats.pop_dropped_learned << "\n";
  }
  if (check) {
    std::cout << "c check-incremental: " << models_checked
              << " models validated, " << proofs_checked
              << " UNSAT answers certified\n";
  }
  if (failed_check) return 1;
  if (last == SolveStatus::satisfiable) return 10;
  if (last == SolveStatus::unsatisfiable) return 20;
  return 0;
}

// The search of a race no worker won, summed over its workers (each
// loaded the same formula, so the database shape is the largest one's).
SolverStats summed_stats(const RaceReport& race) {
  SolverStats sum;
  for (const WorkerReport& report : race.workers) {
    for (const SolverCounter& counter : kSolverCounters) {
      sum.*counter.field += report.stats.*counter.field;
    }
    sum.initial_clauses =
        std::max(sum.initial_clauses, report.stats.initial_clauses);
    sum.max_live_clauses =
        std::max(sum.max_live_clauses, report.stats.max_live_clauses);
  }
  return sum;
}

// --stats: the answer's search statistics and, for a portfolio, the race.
// A race that ends unknown has no answering worker: its statistics are the
// workers' summed, and its winner is none.
void print_stats(const SatEngine& engine, double elapsed) {
  const RaceReport& race = engine.race();
  const bool unanswered = !race.workers.empty() && race.winner < 0;
  const SolverStats summed = unanswered ? summed_stats(race) : SolverStats{};
  const SolverStats& stats = unanswered ? summed : engine.stats();
  std::cout << "c time " << elapsed << " s\n"
            << "c decisions " << stats.decisions << " (top-clause "
            << stats.top_clause_decisions << ", global "
            << stats.global_decisions << ")\n"
            << "c conflicts " << stats.conflicts << "\n"
            << "c propagations " << stats.propagations << "\n"
            << "c restarts " << stats.restarts << "\n"
            << "c learned " << stats.learned_clauses << " (units "
            << stats.learned_units << "), deleted " << stats.deleted_clauses
            << "\n"
            << "c database ratio " << stats.db_generated_ratio()
            << ", peak live ratio " << stats.db_peak_ratio() << "\n";
  if (race.workers.empty()) return;
  if (unanswered) {
    std::cout << "c winner none\n";
  } else {
    std::cout << "c winner "
              << race.workers[static_cast<std::size_t>(race.winner)].name
              << " (worker " << race.winner << " of " << race.workers.size()
              << ")\n";
  }
  for (const WorkerReport& report : race.workers) {
    std::cout << "c worker " << report.name << ": " << to_string(report.status)
              << " in " << report.seconds << " s, " << report.stats.summary()
              << "\n";
  }
  const ExchangeStats& ex = race.exchange;
  std::cout << "c exchange: " << ex.accepted << " stored ("
            << ex.rejected_duplicate << " dup, " << ex.rejected_length
            << " long, " << ex.rejected_glue << " glue, " << ex.rejected_full
            << " over budget), " << ex.collected
            << " collected; totals exported " << stats.exported_clauses
            << ", imported " << stats.imported_clauses << "\n";
}

void print_skin_histogram(const SolverStats& stats) {
  std::cout << "c skin effect f(r) — decisions by top-clause distance:\n";
  const std::size_t rows[] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 50, 100, 500, 1000, 2000};
  for (const std::size_t r : rows) {
    std::cout << "c   f(" << r << ") = " << stats.skin_at(r) << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  args.add_option("preset", "berkmin", "heuristic preset: " + preset_list());
  args.add_option("generate", "", "generate an instance instead of reading a file "
                  "(see --list-generators)");
  args.add_option("threads", "1",
                  "portfolio size: race the preset on worker 0 against N-1 "
                  "schedule/seed-jittered copies with learned-clause sharing "
                  "(1 = the classic sequential solver)",
                  {.min = 1, .max = kMaxThreads});
  args.add_flag("no-share", "portfolio only: disable clause sharing");
  args.add_option("timeout", "0.0", "wall-clock budget in seconds (0 = none)",
                  {.min = 0});
  args.add_option("conflicts", "0", "conflict budget (0 = none)", {.min = 0});
  args.add_option("seed", "0", "random tie-breaking seed");
  args.add_option("drat", "", "write a DRAT proof to this file, streamed "
                  "as the search runs (with --threads N the spliced "
                  "multi-worker trace, streamed after an UNSAT answer)");
  args.add_flag("binary-drat", "emit proofs in drat-trim's binary format");
  args.add_option("unsat-core", "", "on UNSAT: verify the proof with the "
                  "in-tree checker and write an unsatisfiable core of the "
                  "input to this file as DIMACS");
  args.add_flag("check-model", "verify the model against the parsed formula "
                "before printing s SATISFIABLE (exit 1 on failure)");
  args.add_option("write-dimacs", "",
                  "export the (possibly generated) formula to this file and "
                  "continue solving");
  args.add_flag("icnf", "treat the input as an incremental .icnf script "
                "(push/pop clause groups; auto-detected by extension)");
  args.add_flag("check-incremental", "scripted mode: validate every SAT "
                "model against the active formula and certify every UNSAT "
                "answer by re-checking the accumulated DRAT trace (exit 1 "
                "on any failure)");
  args.add_option("icnf-out", "", "synthesize a push/pop edit script from "
                  "the loaded formula, write it to this file, and exit");
  args.add_option("icnf-seed", "0", "seed for --icnf-out synthesis");
  args.add_flag("preprocess", "run one inprocessing pass (probing, subsumption, "
                "strengthening) first; its rewrites lead the --drat/"
                "--unsat-core trace, checked against the original formula");
  args.add_flag("no-inprocess", "disable restart-time inprocessing (on by "
                "default: failed-literal probing, subsumption/self-"
                "subsumption, vivification, and, in single-shot runs, "
                "bounded variable elimination; every rewrite proof-logged)");
  args.add_option("metrics-out", "", "write a telemetry metrics snapshot on "
                  "exit (counters, latency histograms, phase profile); a "
                  ".prom extension selects Prometheus text exposition, "
                  "anything else JSON");
  args.add_option("trace-out", "", "write the solver event trace on exit "
                  "(restarts, reductions, GC, conflict-rate samples)");
  args.add_option("trace-format", "chrome", "trace file format: chrome "
                  "(chrome://tracing / Perfetto) or jsonl");
  robustness::add_flags(&args);
  args.add_flag("stats", "print search statistics");
  args.add_flag("skin", "print the skin-effect histogram (Table 3 data)");
  args.add_flag("model", "print the satisfying assignment");
  args.add_flag("minimize", "enable learned-clause minimization (extension)");
  args.add_flag("list-generators", "list generator specs and exit");
  args.add_flag("help", "show this help");

  if (!args.parse()) {
    std::cerr << "error: " << args.error() << "\n";
    return 1;
  }
  if (args.has_flag("help")) {
    std::cout << args.help("dimacs_solver — the BerkMin reproduction CLI");
    return 0;
  }
  if (args.has_flag("list-generators")) {
    std::cout << gen::registry_help();
    return 0;
  }

  // Telemetry: one hub for the whole run; written by the guard on exit.
  // The main-thread sink feeds the sequential solver, scripted engines and
  // the proof checker; portfolio workers get their own rings via the hub.
  const std::string trace_format_name = args.get_string("trace-format");
  if (trace_format_name != "chrome" && trace_format_name != "jsonl") {
    std::cerr << "error: unknown --trace-format '" << trace_format_name
              << "' (chrome or jsonl)\n";
    return 1;
  }
  // Declared before the writer guard: destructors run in reverse order,
  // and the guard's flush needs the hub alive.
  std::unique_ptr<telemetry::Telemetry> hub;
  TelemetryWriter telemetry_out;
  telemetry_out.metrics_path = args.get_string("metrics-out");
  telemetry_out.trace_path = args.get_string("trace-out");
  telemetry_out.format = trace_format_name == "jsonl"
                             ? telemetry::TraceFormat::jsonl
                             : telemetry::TraceFormat::chrome;
  telemetry::SolverTelemetry main_sink;
  const telemetry::SolverTelemetry* sink = nullptr;
  if (!telemetry_out.metrics_path.empty() || !telemetry_out.trace_path.empty()) {
    hub = std::make_unique<telemetry::Telemetry>();
    telemetry_out.hub = hub.get();
    main_sink = telemetry::SolverTelemetry(*hub, hub->trace().ring("main"));
    sink = &main_sink;
  }

  // Resource governor + fault injection (--memory-budget / --fault-*).
  // Both live for the whole run; their gauges/counters surface in
  // --metrics-out when a hub exists.
  std::unique_ptr<util::MemoryBudget> mem_budget;
  std::unique_ptr<util::FaultInjector> injector;
  if (!robustness::budget_from_args(args, &mem_budget) ||
      !robustness::injector_from_args(args, &injector)) {
    return 1;
  }
  robustness::InstalledInjector installed;
  installed.install(injector.get());
  if (hub != nullptr) {
    if (mem_budget != nullptr) {
      mem_budget->attach_telemetry(hub->metrics().gauge("memory_budget_bytes"),
                                   hub->metrics().counter("degrade_events"));
    }
    if (injector != nullptr) {
      injector->set_counter(hub->metrics().counter("faults_injected"));
    }
  }

  // Scripted incremental mode: the input is an op stream, not a formula.
  const bool scripted =
      args.has_flag("icnf") ||
      (!args.positional().empty() &&
       args.positional()[0].size() > 5 &&
       args.positional()[0].rfind(".icnf") == args.positional()[0].size() - 5);
  if (scripted) {
    if (args.positional().empty()) {
      std::cerr << "error: --icnf needs a script file\n";
      return 1;
    }
    return run_scripted(args, args.positional()[0], hub.get(), sink,
                        mem_budget.get());
  }

  // Load or generate the formula.
  Cnf cnf;
  try {
    if (const std::string spec = args.get_string("generate"); !spec.empty()) {
      std::string error;
      auto instance = gen::generate_from_spec(spec, &error);
      if (!instance) {
        std::cerr << "error: " << error << "\n";
        return 1;
      }
      cnf = std::move(instance->cnf);
      std::cout << "c generated " << spec << "\n";
    } else if (!args.positional().empty()) {
      // The checked reader surfaces recoverable issues (today: a header
      // clause count disagreeing with the file) as warnings instead of
      // refusing a formula that is perfectly solvable.
      dimacs::ParseResult parsed =
          dimacs::read_checked_file(args.positional()[0]);
      for (const dimacs::ParseIssue& issue : parsed.issues) {
        if (!issue.fatal) std::cerr << issue.to_string() << "\n";
      }
      if (!parsed.ok()) {
        std::cerr << "error: " << parsed.first_error() << "\n";
        return 1;
      }
      cnf = std::move(parsed.cnf);
    } else {
      std::cerr << "error: no input (give a DIMACS file or --generate)\n";
      return 1;
    }
  } catch (const std::exception& ex) {
    std::cerr << "error: " << ex.what() << "\n";
    return 1;
  }
  std::cout << "c " << cnf.num_vars() << " variables, " << cnf.num_clauses()
            << " clauses\n";

  if (const std::string path = args.get_string("write-dimacs"); !path.empty()) {
    dimacs::write_file(path, cnf, "exported by dimacs_solver");
    std::cout << "c wrote " << path << "\n";
  }
  if (const std::string path = args.get_string("icnf-out"); !path.empty()) {
    const auto seed = static_cast<std::uint64_t>(args.get_int("icnf-seed"));
    try {
      icnf::write_file(path, icnf::synthesize_from_cnf(cnf, seed),
                       "synthesized push/pop edit script (seed " +
                           std::to_string(seed) + ")");
    } catch (const std::exception& ex) {
      std::cerr << "error: " << ex.what() << "\n";
      return 1;
    }
    std::cout << "c wrote incremental script to " << path << "\n";
    return 0;
  }
  const std::string drat_path = args.get_string("drat");
  const std::string core_path = args.get_string("unsat-core");
  const bool want_proof = !drat_path.empty() || !core_path.empty();
  const proof::DratFormat drat_format = args.has_flag("binary-drat")
                                            ? proof::DratFormat::binary
                                            : proof::DratFormat::text;

  std::optional<SolverOptions> options = options_from_args(args);
  if (!options) return 1;

  Budget budget;
  budget.max_seconds = args.get_double("timeout");
  budget.max_conflicts = static_cast<std::uint64_t>(args.get_int("conflicts"));

  // The proof sink is created before preprocessing so that the rewrites of
  // the inprocessing pre-pass (preprocess(), core/inprocess.h) become the
  // leading steps of the very trace the engine continues — one proof,
  // checkable against the original (unpreprocessed) formula. Plain --drat
  // streams straight to disk, whichever engine runs; --unsat-core buffers
  // the trace here so it can be checked and trimmed.
  proof::MemoryProofWriter memory_proof;
  std::ofstream drat_stream;
  std::unique_ptr<proof::ProofWriter> stream_writer;
  if (!drat_path.empty() && core_path.empty()) {
    drat_stream.open(drat_path, std::ios::binary);
    if (!drat_stream) {
      std::cerr << "error: cannot open '" << drat_path << "' for the proof\n";
      return 1;
    }
    if (drat_format == proof::DratFormat::binary) {
      stream_writer = std::make_unique<proof::BinaryDratWriter>(drat_stream);
    } else {
      stream_writer = std::make_unique<proof::TextDratWriter>(drat_stream);
    }
  }
  proof::ProofWriter* proof_sink = nullptr;
  if (want_proof) {
    proof_sink = stream_writer != nullptr ? stream_writer.get() : &memory_proof;
  }
  // Writes / certifies a buffered UNSAT trace. A streamed trace is
  // already on disk, unless the writer hit a short write and latched the
  // failure: refuse to present the truncated file as a proof.
  const auto finish_proof = [&] {
    if (stream_writer != nullptr) {
      if (stream_writer->ok()) return true;
      std::cerr << "error: DRAT proof incomplete ("
                << stream_writer->fail_reason() << ")\n";
      return false;
    }
    return certify_unsat(cnf, memory_proof.take_proof(), drat_path,
                         drat_format, core_path, sink);
  };
  // The solver may see a preprocessed rewrite; models and proofs are
  // checked against `cnf`, the formula as given.
  const bool preprocessing = args.has_flag("preprocess");
  Cnf reduced;
  if (preprocessing) {
    PreprocessResult pre = preprocess(cnf, proof_sink);
    if (pre.unsat) {
      std::cout << "s UNSATISFIABLE\nc (by preprocessing)\n";
      // The trace already ends with the empty clause.
      return want_proof && !finish_proof() ? 1 : 20;
    }
    std::cout << "c preprocessing: " << pre.subsumed_clauses << " subsumed, "
              << pre.strengthened_clauses << " clauses strengthened, "
              << pre.root_units << " units\n";
    reduced = std::move(pre.cnf);
  }
  const Cnf& solved = preprocessing ? reduced : cnf;

  // Single-shot solving: nothing can mention a variable again after this
  // solve, so a sequential engine may also eliminate variables (portfolio
  // workers never do).
  options->inprocess.var_elim = options->inprocess.enabled;
  const std::unique_ptr<SatEngine> engine =
      engine_from_args(args, *options, hub.get(), sink, mem_budget.get());
  engine->set_proof(proof_sink);
  engine->load(solved);

  WallTimer timer;
  const SolveStatus status = engine->solve_with_assumptions({}, budget);
  const double elapsed = timer.seconds();

  if (status == SolveStatus::satisfiable && args.has_flag("check-model") &&
      !model_checks_out(cnf, engine->model())) {
    return 1;
  }
  std::cout << "s " << to_string(status) << "\n";
  if (status == SolveStatus::satisfiable) {
    if (args.has_flag("model")) {
      std::cout << "v ";
      for (Var v = 0; v < cnf.num_vars(); ++v) {
        const bool positive = engine->model()[v] == Value::true_value;
        std::cout << (positive ? v + 1 : -(v + 1)) << ' ';
      }
      std::cout << "0\n";
    }
    if (!cnf.is_satisfied_by(engine->model())) {
      std::cerr << "error: model failed validation (solver bug)\n";
      return 1;
    }
  }
  if (status == SolveStatus::unsatisfiable && want_proof && !finish_proof()) {
    return 1;
  }
  if (args.has_flag("stats")) print_stats(*engine, elapsed);
  if (args.has_flag("skin")) print_skin_histogram(engine->stats());

  if (status == SolveStatus::satisfiable) return 10;
  if (status == SolveStatus::unsatisfiable) return 20;
  return 0;
}
