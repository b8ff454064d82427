#include "portfolio/portfolio.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "util/fault.h"
#include "util/memory_budget.h"
#include "util/timer.h"

namespace berkmin::portfolio {

namespace {

// Worker i's trace ring is named kRingPrefix + i.
constexpr char kRingPrefix[] = "portfolio-w";

}  // namespace

PortfolioSolver::PortfolioSolver(PortfolioOptions options)
    : opts_(std::move(options)) {
  if (opts_.num_threads < 1) opts_.num_threads = 1;
  if (!opts_.configs.empty() &&
      opts_.configs.size() < static_cast<std::size_t>(opts_.num_threads)) {
    throw std::invalid_argument(
        "PortfolioSolver: the lineup names " +
        std::to_string(opts_.configs.size()) + " workers for " +
        std::to_string(opts_.num_threads) + " threads");
  }
}

bool PortfolioSolver::add_clause(std::span<const Lit> lits) {
  (void)log_.append(icnf::Op::clause(lits));
  return true;
}

bool PortfolioSolver::load(const Cnf& cnf) {
  log_.declared_vars = std::max(log_.num_vars(), cnf.num_vars());
  for (const auto clause : cnf.clauses()) add_clause(clause);
  return true;
}

GroupId PortfolioSolver::push_group() {
  if (proof_ != nullptr) return no_group;
  // Each worker Solver numbers its groups like the log, so applying this
  // push assigns the identical handle in every worker.
  (void)log_.append(icnf::Op::push());
  return innermost_group();
}

SolveStatus PortfolioSolver::solve(const Budget& budget) {
  return solve_with_assumptions({}, budget);
}

void PortfolioSolver::warm_up_workers() {
  const int n = opts_.num_threads;
  if (solvers_.empty()) {
    std::vector<WorkerConfig> configs = opts_.configs;
    if (configs.empty()) configs = diversified_configs(n, opts_.base_seed);
    configs.resize(static_cast<std::size_t>(n));
    for (WorkerConfig& config : configs) {
      config.options.inprocess.var_elim = false;
    }

    exchange_ = std::make_unique<ClauseExchange>(n);
    if (opts_.memory_budget != nullptr) {
      exchange_->set_memory_budget(opts_.memory_budget);
    }
    if (proof_ != nullptr) {
      splicer_ = std::make_unique<proof::ProofSplicer>(n);
    }
    solvers_.resize(static_cast<std::size_t>(n));
    worker_names_.resize(static_cast<std::size_t>(n));
    sinks_.resize(static_cast<std::size_t>(n));
    pending_exports_.assign(static_cast<std::size_t>(n), 0);
    dead_.assign(static_cast<std::size_t>(n), 0);
    dead_errors_.assign(static_cast<std::size_t>(n), {});
    for (int i = 0; i < n; ++i) {
      auto& slot = solvers_[static_cast<std::size_t>(i)];
      slot = std::make_unique<Solver>(configs[static_cast<std::size_t>(i)].options);
      worker_names_[static_cast<std::size_t>(i)] =
          configs[static_cast<std::size_t>(i)].name;

      Solver* solver = slot.get();
      solver->set_external_stop(&user_stop_);
      if (opts_.memory_budget != nullptr) {
        solver->set_memory_budget(opts_.memory_budget);
      }
      if (splicer_ != nullptr) solver->set_proof(splicer_->writer(i));
      if (opts_.telemetry != nullptr) {
        telemetry::TraceRing* ring =
            opts_.trace_workers
                ? opts_.telemetry->trace().ring(kRingPrefix +
                                                std::to_string(i))
                : nullptr;
        sinks_[static_cast<std::size_t>(i)] =
            std::make_unique<telemetry::SolverTelemetry>(*opts_.telemetry, ring);
        solver->set_telemetry(sinks_[static_cast<std::size_t>(i)].get());
      }
      if (opts_.share_clauses) {
        ClauseExchange* exchange = exchange_.get();
        proof::ProofSplicer* splicer = splicer_.get();
        const std::uint32_t max_len =
            std::max(exchange->limits().max_clause_length,
                     exchange->limits().max_glue_clause_length);
        // Owned by this worker's thread only: batched into an export_batch
        // trace event at the next restart boundary.
        std::uint64_t* pending = &pending_exports_[static_cast<std::size_t>(i)];
        solver->set_learn_callback([exchange, splicer, solver, i, max_len,
                                    pending](std::span<const Lit> lits) {
          // Safety-cap filter before taking the exchange lock: clauses
          // beyond every admission rule's reach never lock at all.
          if (lits.empty() || lits.size() > max_len) return;
          std::size_t entry_index = 0;
          if (exchange->publish(i, lits, solver->last_learned_glue(),
                                &entry_index)) {
            solver->note_exported_clause();
            ++*pending;
            // The clause now has pending copies: its deletion must wait
            // for the importers' copy-adds (see ProofSplicer).
            if (splicer != nullptr) {
              splicer->note_published(i, lits, entry_index);
            }
          }
        });
        const telemetry::SolverTelemetry* sink =
            sinks_[static_cast<std::size_t>(i)].get();
        solver->set_restart_callback([exchange, splicer, solver, i, sink,
                                      pending]() {
          std::vector<std::vector<Lit>> batch;
          std::vector<std::uint32_t> glues;
          std::size_t cursor_after = 0;
          exchange->collect(i, &batch, &glues, &cursor_after);
          const std::uint64_t imported_before = solver->stats().imported_clauses;
          for (std::size_t b = 0; b < batch.size(); ++b) {
            if (!solver->import_clause(batch[b], glues[b])) break;  // root UNSAT
          }
          // Copy-adds for everything below cursor_after are logged now;
          // published-clause deletions up to here may be sequenced.
          if (splicer != nullptr) splicer->note_collected(i, cursor_after);
          if (sink != nullptr) {
            if (*pending != 0) {
              sink->emit(telemetry::EventKind::export_batch, sink->now_ns(), 0,
                         *pending, 0);
              *pending = 0;
            }
            if (!batch.empty()) {
              sink->emit(telemetry::EventKind::import_batch, sink->now_ns(), 0,
                         batch.size(),
                         solver->stats().imported_clauses - imported_before);
            }
          }
        });
      }
    }
  }

  // Replay only what changed since the previous call, keeping each
  // worker's learned clauses, activities and saved polarities intact.
  // The log is replayed verbatim — clause adds, group pushes and pops in
  // their original order — so every worker's internal variable layout
  // (selectors included) is identical, which the clause exchange relies
  // on. A root-level conflict does not abort the replay: add_clause is
  // O(1) once ok() is false, and the push/pop ops must still run to keep
  // the group stacks aligned. Workers are independent during loading, so
  // the first (full) replay runs one thread per worker — like the racing
  // phase itself — instead of serializing n copies of the formula on the
  // calling thread.
  const std::size_t from = replayed_ops_;
  const auto feed = [&](Solver& solver) {
    for (std::size_t i = from; i < log_.size(); ++i) {
      (void)icnf::apply(solver, log_.op(i));
    }
    // Trailing variables added without any clause mentioning them.
    while (solver.num_vars() < log_.num_vars()) solver.new_var();
  };
  // Dead workers are never fed again: their engines are poisoned and out
  // of the race for good.
  if (log_.size() > from && solvers_.size() > 1) {
    std::vector<std::thread> threads;
    threads.reserve(solvers_.size());
    for (std::size_t i = 0; i < solvers_.size(); ++i) {
      if (dead_[i]) continue;
      Solver* solver = solvers_[i].get();
      threads.emplace_back([&feed, solver] { feed(*solver); });
    }
    for (std::thread& t : threads) t.join();
  } else {
    for (std::size_t i = 0; i < solvers_.size(); ++i) {
      if (!dead_[i]) feed(*solvers_[i]);
    }
  }
  replayed_ops_ = log_.size();
}

SolveStatus PortfolioSolver::solve_with_assumptions(
    std::span<const Lit> assumptions, const Budget& budget) {
  const int n = opts_.num_threads;
  warm_up_workers();

  race_.winner = -1;
  model_.clear();
  failed_assumptions_.clear();
  last_slice_ = SliceStats{};
  stats_ = SolverStats{};
  std::vector<WorkerReport>& reports = race_.workers;
  reports.assign(static_cast<std::size_t>(n), WorkerReport{});
  for (int i = 0; i < n; ++i) {
    reports[static_cast<std::size_t>(i)].name =
        worker_names_[static_cast<std::size_t>(i)];
  }

  // Un-latch the per-worker stop flags a previous race's winner set on its
  // siblings; the user's own flag (user_stop_) stays untouched. Dead
  // workers' flags are irrelevant (they never solve again).
  for (std::size_t i = 0; i < solvers_.size(); ++i) {
    if (!dead_[i]) solvers_[i]->clear_stop();
  }

  std::mutex winner_mutex;
  const std::vector<Lit> assumed(assumptions.begin(), assumptions.end());

  const auto worker = [&](int id) {
    Solver& solver = *solvers_[static_cast<std::size_t>(id)];
    WorkerReport& report = reports[static_cast<std::size_t>(id)];

    WallTimer timer;
    SolveStatus status = SolveStatus::unknown;
    try {
      // Injected faults: a stall delays this worker (the race must still
      // finish via its siblings or the budget); a death kills it.
      BERKMIN_FAULT_STALL(util::FaultSite::worker_stall);
      if (BERKMIN_FAULT_POINT(util::FaultSite::worker_death)) {
        throw std::runtime_error("injected portfolio worker death");
      }
      status = solver.solve_with_assumptions(assumed, budget);
    } catch (const std::exception& e) {
      // Worker death (real bad_alloc or injected): the engine's internal
      // state is arbitrary mid-search, so poison it permanently, retire
      // its exchange cursor (a stale cursor would stall proof-deletion
      // release forever), and let the race continue on the survivors.
      report.died = true;
      report.error = e.what();
      report.seconds = timer.seconds();
      dead_[static_cast<std::size_t>(id)] = 1;
      dead_errors_[static_cast<std::size_t>(id)] = e.what();
      exchange_->retire_worker(id);
      return;
    }
    const double seconds = timer.seconds();

    report.status = status;
    report.seconds = seconds;

    if (status != SolveStatus::unknown) {
      std::lock_guard<std::mutex> lock(winner_mutex);
      if (race_.winner < 0) race_.winner = id;
      // Cancel the race through each sibling's own sticky flag (the
      // shared user_stop_ must stay untouched: it belongs to the user).
      for (const auto& sibling : solvers_) sibling->request_stop();
    }
  };

  std::vector<int> runnable;
  runnable.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    if (!dead_[static_cast<std::size_t>(i)]) runnable.push_back(i);
  }
  if (runnable.size() == 1) {
    worker(runnable.front());
  } else {
    std::vector<std::thread> threads;
    threads.reserve(runnable.size());
    for (const int i : runnable) threads.emplace_back(worker, i);
    for (std::thread& t : threads) t.join();
  }

  // Snapshot per-worker stats only after every thread has stopped. The
  // counters are cumulative over the workers' lifetime — warm workers keep
  // growing them call after call. A worker that died in an earlier solve
  // keeps reporting died (its stats snapshot is whatever it had reached).
  // Every worker still alive ran this call and adds to last_slice_.
  for (int i = 0; i < n; ++i) {
    const std::size_t w = static_cast<std::size_t>(i);
    const Solver& solver = *solvers_[w];
    reports[w].stats = solver.stats();
    if (dead_[w]) {
      reports[w].died = true;
      reports[w].error = dead_errors_[w];
    } else {
      last_slice_.conflicts += solver.last_slice().conflicts;
      last_slice_.decisions += solver.last_slice().decisions;
      last_slice_.propagations += solver.last_slice().propagations;
      last_slice_.restarts += solver.last_slice().restarts;
      last_slice_.learned_clauses += solver.last_slice().learned_clauses;
      last_slice_.seconds += solver.last_slice().seconds;
    }
  }
  const int winner = race_.winner;
  if (winner >= 0) stats_ = reports[static_cast<std::size_t>(winner)].stats;
  stats_.exported_clauses = stats_.imported_clauses = 0;
  stats_.duplicate_binaries_skipped = 0;
  for (const WorkerReport& report : reports) {
    stats_.exported_clauses += report.stats.exported_clauses;
    stats_.imported_clauses += report.stats.imported_clauses;
    stats_.duplicate_binaries_skipped +=
        report.stats.duplicate_binaries_skipped;
  }
  race_.exchange = exchange_->stats();
  publish_exchange_stats();

  if (winner < 0) return SolveStatus::unknown;
  const Solver& winning = *solvers_[static_cast<std::size_t>(winner)];
  const SolveStatus status = reports[static_cast<std::size_t>(winner)].status;
  if (status == SolveStatus::satisfiable) {
    model_ = winning.model();
  } else {
    failed_assumptions_ = winning.failed_assumptions();
    // A refutation of the formula itself: hand the attached writer the
    // whole spliced trace, once (later solves only re-answer UNSAT).
    if (failed_assumptions_.empty() && splicer_ != nullptr &&
        proof_ != nullptr && !proof_replayed_) {
      proof::replay(splicer_->spliced(), *proof_);
      proof_replayed_ = true;
    }
  }
  return status;
}

// Flushes the exchange-stats deltas since the previous solve into the
// hub's "exchange.*" counters (the exchange itself stays telemetry-free;
// its owner reports for it).
void PortfolioSolver::publish_exchange_stats() {
  if (opts_.telemetry == nullptr) return;
  telemetry::MetricsRegistry& metrics = opts_.telemetry->metrics();
  const auto flush = [&](const char* name, std::uint64_t current,
                         std::uint64_t* prev) {
    if (current > *prev) {
      metrics.counter(name)->add(current - *prev);
      *prev = current;
    }
  };
  flush("exchange.published", race_.exchange.published,
        &exchange_seen_.published);
  flush("exchange.accepted", race_.exchange.accepted, &exchange_seen_.accepted);
  flush("exchange.rejected_length", race_.exchange.rejected_length,
        &exchange_seen_.rejected_length);
  flush("exchange.rejected_glue", race_.exchange.rejected_glue,
        &exchange_seen_.rejected_glue);
  flush("exchange.rejected_duplicate", race_.exchange.rejected_duplicate,
        &exchange_seen_.rejected_duplicate);
  flush("exchange.rejected_full", race_.exchange.rejected_full,
        &exchange_seen_.rejected_full);
  flush("exchange.rejected_pressure", race_.exchange.rejected_pressure,
        &exchange_seen_.rejected_pressure);
  flush("exchange.collected", race_.exchange.collected,
        &exchange_seen_.collected);
}

std::unique_ptr<SatEngine> make_engine(const SolverOptions& options,
                                       int threads, PortfolioOptions shared,
                                       std::unique_ptr<SatEngine> spare) {
  if (threads <= 1) {
    // At one thread this factory builds nothing but a Solver, so a spare
    // it built is one.
    auto solver = spare != nullptr
                      ? std::make_unique<Solver>(
                            options, std::move(static_cast<Solver&>(*spare)))
                      : std::make_unique<Solver>(options);
    solver->set_memory_budget(shared.memory_budget);
    return solver;
  }
  shared.num_threads = threads;
  shared.configs = diversify_around(options, threads, options.seed);
  return std::make_unique<PortfolioSolver>(std::move(shared));
}

}  // namespace berkmin::portfolio
