#include "workloads.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "core/solver.h"
#include "engines/backend.h"
#include "engines/bmc.h"
#include "engines/ic3.h"
#include "gen/registry.h"
#include "gen/safety.h"
#include "harness/suites.h"
#include "service/solver_service.h"
#include "telemetry/solver_telemetry.h"
#include "util/rng.h"

namespace stackbench {

using namespace berkmin;
using engines::EngineResult;
using engines::TransitionSystem;
using engines::Verdict;

namespace {

// ---- sizes -----------------------------------------------------------------
// A round answers every request of a workload once; --seconds sets the
// number of rounds. The work of a round is fixed, so every metric
// compares like with like.

// oneshot-paper: the paper's classes at bench scale. The suite is the
// fixed instance set the table drivers use (generator seed 7); the run
// seed only orders it, anew in every round. Seeded draws of the
// random-circuit classes vary tenfold in cost (the Miters class alone
// spans 0.2-6.5 s), which would make every metric a measure of the draw.
constexpr int kPaperScale = 2;
constexpr std::uint64_t kPaperSuiteSeed = 7;
constexpr double kInstanceTimeout = 60.0;  // PAR-2 counts 2x this
constexpr double kPaperRoundSeconds = 16.0;
// Within a round, an instance is loaded and solved again, back to back,
// until this many milliseconds have passed, and keeps its fastest solve.
// The instance at the suite's median takes about 3 ms; timed once per
// round, its time measured the moment it ran in (answer_p50_ms spread by
// 0.19 of its median over five seeds, 0.05 with the repetitions).
constexpr double kInstanceFloorMs = 30.0;

// certified-session: safety systems, each checked by both engines once
// per round. The pool is fixed (pool seed 7) and the run seed orders it:
// the answer tail follows the few costliest answers of a run, and with
// seeded pools it spread by 0.73 of its median over ten seeds. Every
// answer re-checks the session's whole proof, so the checker's working
// set grows with the bound: at bound 64 the same runs spread from 3.9 to
// 6.3 s of solve_s as the machine's memory got busier, at bound 32 from
// 1.17 to 1.46 s.
constexpr int kCertSystems = 96;
constexpr int kCertBound = 32;
constexpr double kCertRoundSeconds = 5.0;
constexpr std::uint64_t kSystemPoolSeed = 7;

// The number of `round_seconds` rounds that fit in --seconds, at least one.
int rounds(const Config& config, double round_seconds) {
  if (config.first_round_only) return 1;
  return std::max(1, static_cast<int>(config.seconds / round_seconds));
}

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t state = seed * 0x100000001B3ULL + index;
  return splitmix64(state);
}

double seconds_between(std::int64_t start, std::int64_t end) {
  return static_cast<double>(end - start) * 1e-9;
}

// The run seed's order of `n` requests for one round: every round has its
// own, so a request meets a different moment of the run in each round.
std::vector<std::size_t> round_order(const Config& config, int round,
                                     std::size_t n) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  Rng(sub_seed(config.seed, static_cast<std::uint64_t>(round))).shuffle(order);
  return order;
}

// Runs one repetition of a workload's set-up and records its time. The
// first repetition's result is the run's input. Workloads repeat the
// set-up at moments spread over the run and drop the result: the machine
// the benchmark was written on changes speed by up to a third within
// seconds, and back-to-back repetitions would all sample one moment.
template <class Make>
auto timed_setup(Run& run, const Make& make) {
  const std::int64_t start = now_ns();
  auto out = make();
  run.setup_s.push_back(seconds_between(start, now_ns()));
  return out;
}

// Whether a set-up repetition is due before request `i` of a round of
// `n`: at the start of its second, third and fourth quarter (the
// workloads add one after every round).
bool setup_due(std::size_t i, std::size_t n) {
  return i > 0 && 4 * i / n != 4 * (i - 1) / n;
}

// The configuration of round `round`: only round 0 is traced, so the
// per-layer figures describe one solve per request.
Config round_config(const Config& config, int round) {
  if (round == 0) return config;
  Config untraced = config;
  untraced.hub = nullptr;
  untraced.spans = nullptr;
  return untraced;
}

// Keeps the element-wise minimum of `best` and one round's `values`. The
// rounds repeat the same deterministic calls, so value k of one round
// matches value k of the others; an empty `best` takes the round as is.
void keep_fastest(std::vector<double>& best, const std::vector<double>& values) {
  if (best.empty()) {
    best = values;
    return;
  }
  for (std::size_t k = 0; k < std::min(best.size(), values.size()); ++k) {
    best[k] = std::min(best[k], values[k]);
  }
}

// Optional telemetry sink for in-process solvers (traced runs only).
std::unique_ptr<telemetry::SolverTelemetry> make_sink(const Config& config) {
  if (config.hub == nullptr) return nullptr;
  return std::make_unique<telemetry::SolverTelemetry>(*config.hub);
}

bool answer_matches(gen::Expectation expected, SolveStatus status) {
  switch (status) {
    case SolveStatus::satisfiable:
      return expected != gen::Expectation::unsat;
    case SolveStatus::unsatisfiable:
      return expected != gen::Expectation::sat;
    case SolveStatus::unknown:
      return false;
  }
  return false;
}

void add_counter(Run& run, const char* name, std::uint64_t value) {
  run.counters[name] += value;
}

// ---- oneshot-paper ----------------------------------------------------------

// One instance's times in milliseconds.
struct InstanceTimes {
  double verdict_ms = 0.0;  // the solve and the check of its answer
  double answer_ms = 0.0;   // the solve; PAR-2 (2x the timeout) if unknown
};

// Loads one instance into a fresh BerkMin solver, solves it and checks the
// answer. Loading is set-up and is timed there (see oneshot_paper). Round
// 0 also books its counters and call time.
InstanceTimes solve_instance(Run& run, const Config& config,
                             const harness::Instance& instance,
                             std::uint64_t id,
                             telemetry::SolverTelemetry* sink,
                             bool first_round) {
  Solver solver(SolverOptions::berkmin());
  solver.set_telemetry(sink);
  solver.load(instance.cnf);
  SolveStatus status = SolveStatus::unknown;
  double solve_s = 0.0;
  const std::int64_t start = now_ns();
  {
    SpanScope span(config.spans, "core.solve", id);
    status = solver.solve(Budget::wall_clock(kInstanceTimeout));
    solve_s = seconds_between(start, now_ns());
  }
  bool ok = answer_matches(instance.expected, status);
  if (ok && status == SolveStatus::satisfiable) {
    SpanScope span(config.spans, "oneshot.validate_model", id);
    ok = instance.cnf.is_satisfied_by(solver.model());
  }
  run.check(ok, instance.name + ": " + to_string(status));
  const double verdict_ms = seconds_between(start, now_ns()) * 1e3;
  const double answer_s =
      status == SolveStatus::unknown ? 2.0 * kInstanceTimeout : solve_s;

  if (first_round) {
    run.first_round_s += answer_s;
    run.call_s += solve_s;
    run.call_us.push_back(solve_s * 1e6);
    const SolverStats& stats = solver.stats();
    add_counter(run, "core.propagations", stats.propagations);
    add_counter(run, "core.conflicts", stats.conflicts);
    add_counter(run, "core.decisions", stats.decisions);
    add_counter(run, "core.solve_calls", 1);
  }
  return {verdict_ms, answer_s * 1e3};
}

Run oneshot_paper(const Config& config) {
  Run run;
  // Set-up is generating the suite and loading every instance into a
  // fresh solver: the encoding a user pays before the first solve. The
  // solves below load again, untimed, as each needs a fresh solver.
  const auto make = [] {
    std::vector<harness::Instance> generated;
    for (harness::Suite& suite :
         harness::paper_classes(kPaperScale, kPaperSuiteSeed)) {
      for (harness::Instance& instance : suite.instances) {
        generated.push_back(std::move(instance));
      }
    }
    for (const harness::Instance& instance : generated) {
      Solver(SolverOptions::berkmin()).load(instance.cnf);
    }
    return generated;
  };
  const std::vector<harness::Instance> instances = timed_setup(run, make);
  const std::size_t n = instances.size();
  const Config untraced = round_config(config, 1);
  for (int round = 0; round < rounds(config, kPaperRoundSeconds); ++round) {
    const Config traced = round_config(config, round);
    std::unique_ptr<telemetry::SolverTelemetry> sink = make_sink(traced);
    const std::vector<std::size_t> order = round_order(config, round, n);
    std::vector<double> verdict_ms(n);
    std::vector<double> answer_ms(n);
    for (std::size_t k = 0; k < n; ++k) {
      if (setup_due(k, n)) timed_setup(run, make);
      const std::size_t i = order[k];
      const std::int64_t begin = now_ns();
      InstanceTimes best =
          solve_instance(run, traced, instances[i], i, sink.get(), round == 0);
      // Repetitions are neither traced nor counted: the per-layer figures
      // cover one solve per instance.
      while (seconds_between(begin, now_ns()) * 1e3 < kInstanceFloorMs) {
        const InstanceTimes again =
            solve_instance(run, untraced, instances[i], i, nullptr, false);
        best.verdict_ms = std::min(best.verdict_ms, again.verdict_ms);
        best.answer_ms = std::min(best.answer_ms, again.answer_ms);
      }
      verdict_ms[i] = best.verdict_ms;
      answer_ms[i] = best.answer_ms;
    }
    keep_fastest(run.verdict_ms, verdict_ms);
    keep_fastest(run.answer_ms, answer_ms);
    timed_setup(run, make);
  }
  run.solve_s =
      std::accumulate(run.answer_ms.begin(), run.answer_ms.end(), 0.0) * 1e-3;
  return run;
}

// ---- certified-session ------------------------------------------------------

struct System {
  std::uint64_t id = 0;
  bool unsafe = false;
  TransitionSystem ts;
  std::optional<int> bad_step;  // BFS ground truth
};

// The family mix: safe, unsafe and latch-heavy systems in turn.
gen::SafetyParams system_params(int index) {
  gen::SafetyParams p;
  p.seed = sub_seed(kSystemPoolSeed, static_cast<std::uint64_t>(index));
  p.cycles = 12;
  switch (index % 3) {
    case 0:
      p.safe = true;
      p.num_latches = 10;
      p.num_inputs = 4;
      p.num_gates = 60;
      break;
    case 1:
      p.safe = false;
      p.num_latches = 10;
      p.num_inputs = 4;
      p.num_gates = 60;
      break;
    default:
      p.safe = true;
      p.latch_heavy = true;
      p.num_latches = 12;
      p.num_inputs = 3;
      break;
  }
  return p;
}

// The pool's systems with their BFS ground truth.
std::vector<System> make_systems(int count) {
  std::vector<System> systems;
  systems.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const gen::SafetyParams params = system_params(i);
    TransitionSystem ts = gen::safety_system(params);
    const std::optional<int> step = ts.reachable_bad_step();
    systems.push_back({static_cast<std::uint64_t>(i), !params.safe,
                       std::move(ts), step});
  }
  return systems;
}

void check_ground_truth(Run& run, const std::vector<System>& systems) {
  for (const System& system : systems) {
    run.check(system.unsafe == system.bad_step.has_value(),
              "system " + std::to_string(system.id) +
                  ": generator and BFS ground truth disagree");
  }
}

// Checks an engine verdict against the BFS ground truth. BMC finds the
// shallowest counterexample, so its depth must equal the BFS step.
void check_verdict(Run& run, const System& system, bool bmc,
                   const EngineResult& result) {
  bool ok = false;
  if (system.bad_step.has_value()) {
    ok = result.verdict == Verdict::unsafe && result.cex_validated &&
         result.cex.has_value() &&
         (bmc ? result.cex->depth() == *system.bad_step
              : result.cex->depth() >= *system.bad_step);
  } else if (bmc) {
    ok = result.verdict == Verdict::safe_bounded && result.bound == kCertBound;
  } else {
    ok = result.verdict == Verdict::safe_invariant;
  }
  run.check(ok, std::string(bmc ? "bmc" : "ic3") + " on system " +
                    std::to_string(system.id) + ": " +
                    to_string(result.verdict) + " " + result.error);
}

// Accounts one round-0 engine run: its counters and its backend traffic.
void account_engine(Run& run, const EngineResult& result,
                    const BackendTotals& totals) {
  add_counter(run, "engines.obligations", result.stats.obligations);
  add_counter(run, "engines.generalization_drops",
              result.stats.generalization_drops);
  add_counter(run, "engines.pushes", result.stats.pushes);
  add_counter(run, "engines.pops", result.stats.pops);
  add_counter(run, "core.solve_calls", totals.solve_calls);
  add_counter(run, "core.group_ops", totals.group_ops);
  ++run.engine_verdicts;
  run.engine_queries += totals.solve_calls;
  run.call_s += totals.solve_s;
  run.group_ops_s += totals.group_s;
  run.call_us.insert(run.call_us.end(), totals.solve_us.begin(),
                     totals.solve_us.end());
}

// Wall-clock milliseconds. Certified sessions hand every answer from the
// benchmark's thread to the service worker and back; the fastest of the
// rounds drops the slow hand-offs. Process CPU time was tried and read
// some sub-millisecond answers at a sixth of their time: the worker's
// running slice is not always counted yet when the caller reads the
// clock, and the fastest round then keeps the undercount.
double wall_ms() { return static_cast<double>(now_ns()) * 1e-6; }

// Runs BMC or IC3 over `backend` (already wrapped for timing), checks the
// verdict and stores the engine's run time in *elapsed_ms.
EngineResult run_engine(Run& run, const Config& config, const System& system,
                        bool bmc, engines::EngineBackend& backend,
                        double* elapsed_ms) {
  const double start = wall_ms();
  EngineResult result;
  if (bmc) {
    SpanScope span(config.spans, "engine.bmc", system.id);
    result =
        engines::BmcEngine(system.ts, backend, {.bound = kCertBound}).run();
  } else {
    SpanScope span(config.spans, "engine.ic3", system.id);
    result = engines::Ic3Engine(system.ts, backend, {}).run();
  }
  *elapsed_ms = wall_ms() - start;
  check_verdict(run, system, bmc, result);
  return result;
}

// Reads the certification result of every session answer as it arrives.
class CertifyingBackend final : public engines::EngineBackend {
 public:
  // What the session's answers reported, in query order.
  struct Tally {
    std::vector<double> answer_ms;  // per certified (UNSAT) answer
    std::vector<double> check_ms;   // its certification part (wall)
    std::vector<double> queue_ms;   // per answer
    std::uint64_t propagations = 0;
    std::uint64_t conflicts = 0;
    std::uint64_t decisions = 0;
    std::uint64_t slices = 0;
  };

  CertifyingBackend(engines::SessionBackend& session, Run& run)
      : session_(session), run_(run) {}

  Var new_vars(int n) override { return session_.new_vars(n); }
  bool add_clause(std::span<const Lit> lits) override {
    return mirror(session_.add_clause(lits));
  }
  GroupId push() override {
    const GroupId id = session_.push();
    error_ = session_.last_error();
    return id;
  }
  bool pop(GroupId id) override { return mirror(session_.pop(id)); }
  bool pop() override { return mirror(session_.pop()); }
  bool add_clause_to(GroupId id, std::span<const Lit> lits) override {
    return mirror(session_.add_clause_to(id, lits));
  }
  bool set_group_active(GroupId id, bool active) override {
    return mirror(session_.set_group_active(id, active));
  }
  SolveStatus solve(std::span<const Lit> assumptions,
                    const Budget& budget) override {
    const double start = wall_ms();
    const SolveStatus status = session_.solve(assumptions, budget);
    const double elapsed_ms = wall_ms() - start;
    error_ = session_.last_error();
    const service::JobResult& result = session_.last_result();
    if (status == SolveStatus::unsatisfiable) {
      run_.check(result.proof_checked && result.proof_valid,
                 "session answer " + std::to_string(result.id) +
                     ": UNSAT answer not certified");
      // A certified answer is its solve slices plus certification; the
      // part of the service's own answer time after the solve slices is
      // the per-answer proof copy and DratChecker run.
      tally_.answer_ms.push_back(elapsed_ms);
      const double answer_s =
          std::max(0.0, result.wall_seconds - result.queue_seconds);
      tally_.check_ms.push_back(
          std::max(0.0, answer_s - result.solve_seconds) * 1e3);
    }
    tally_.propagations += result.propagations;
    tally_.conflicts += result.conflicts;
    tally_.decisions += result.decisions;
    tally_.slices += result.slices;
    tally_.queue_ms.push_back(result.queue_seconds * 1e3);
    return status;
  }
  bool model_value(Lit l) const override { return session_.model_value(l); }
  const std::vector<Lit>& failed_assumptions() const override {
    return session_.failed_assumptions();
  }
  std::string name() const override { return session_.name(); }

  const Tally& tally() const { return tally_; }

 private:
  bool mirror(bool ok) {
    error_ = session_.last_error();
    return ok;
  }

  engines::SessionBackend& session_;
  Run& run_;
  Tally tally_;
};

// Per system and engine (index 2 * system + engine): the fastest run of
// the engine and the fastest time of each of its answers over the rounds.
struct Fastest {
  explicit Fastest(std::size_t systems)
      : engine_ms(2 * systems), answer_ms(2 * systems) {}
  std::vector<std::vector<double>> engine_ms;
  std::vector<std::vector<double>> answer_ms;
};

Run certified_session(const Config& config) {
  Run run;
  const auto make = [] { return make_systems(kCertSystems); };
  const std::vector<System> systems = timed_setup(run, make);
  const std::size_t n = systems.size();
  check_ground_truth(run, systems);

  service::SessionRequest request;
  request.options = SolverOptions::berkmin();
  request.proof.log = true;
  request.proof.check = true;

  Fastest fastest(n);
  for (int round = 0; round < rounds(config, kCertRoundSeconds); ++round) {
    const Config traced = round_config(config, round);
    service::ServiceOptions options;
    options.num_workers = 1;
    options.telemetry = traced.hub;
    service::SolverService solving(options);
    const std::vector<std::size_t> order = round_order(config, round, n);
    for (std::size_t k = 0; k < n; ++k) {
      if (setup_due(k, n)) timed_setup(run, make);
      const System& system = systems[order[k]];
      for (const bool bmc : {true, false}) {
        engines::SessionBackend session(solving, request);
        run.check(session.alive(), "session refused: " + session.last_error());
        if (!session.alive()) continue;
        CertifyingBackend certifying(session, run);
        TimingBackend backend(certifying, traced.spans, system.id);
        double ms = 0.0;
        const EngineResult result =
            run_engine(run, traced, system, bmc, backend, &ms);
        const CertifyingBackend::Tally& tally = certifying.tally();
        const std::size_t slot = 2 * order[k] + (bmc ? 0 : 1);
        keep_fastest(fastest.engine_ms[slot], {ms});
        keep_fastest(fastest.answer_ms[slot], tally.answer_ms);
        if (round != 0) continue;
        run.first_round_s += ms * 1e-3;
        account_engine(run, result, backend.totals());
        add_counter(run, "core.propagations", tally.propagations);
        add_counter(run, "core.conflicts", tally.conflicts);
        add_counter(run, "core.decisions", tally.decisions);
        add_counter(run, "service.slices", tally.slices);
        run.queue_ms.insert(run.queue_ms.end(), tally.queue_ms.begin(),
                            tally.queue_ms.end());
        run.check_ms.push_back(tally.check_ms);
      }
    }
    solving.shutdown(service::SolverService::Shutdown::drain);
    timed_setup(run, make);
  }

  // A system's verdict is validated once both engines agree with the BFS
  // ground truth; its latency is the two engines' fastest runs together,
  // and solve_s adds up these latencies.
  for (std::size_t i = 0; i < n; ++i) {
    const double ms =
        fastest.engine_ms[2 * i].front() + fastest.engine_ms[2 * i + 1].front();
    run.verdict_ms.push_back(ms);
    run.solve_s += ms * 1e-3;
    for (const std::size_t slot : {2 * i, 2 * i + 1}) {
      run.answer_ms.insert(run.answer_ms.end(),
                           fastest.answer_ms[slot].begin(),
                           fastest.answer_ms[slot].end());
    }
  }
  return run;
}

}  // namespace

// ---- public -----------------------------------------------------------------

void Run::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"oneshot-paper",
                                                 "certified-session"};
  return names;
}

bool is_workload(const std::string& name) {
  const auto& names = workload_names();
  return std::find(names.begin(), names.end(), name) != names.end();
}

Run run_workload(const std::string& name, const Config& config) {
  if (name == "oneshot-paper") return oneshot_paper(config);
  if (name == "certified-session") return certified_session(config);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace stackbench
