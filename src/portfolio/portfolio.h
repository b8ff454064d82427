// Parallel portfolio solving: N diversified BerkMin engines racing on the
// same formula, cooperating through learned-clause exchange.
//
// Each worker runs a full berkmin::Solver on its own std::thread with a
// configuration from diversify.h (the paper's presets and ablations plus
// schedule/seed jitter). Workers export short learned clauses to a shared
// ClauseExchange as they deduce them and import their siblings' clauses
// at every restart boundary. The first worker to reach a definitive
// answer wins: one shared atomic stop flag (checked inside every worker's
// search loop) cancels the rest, and the winner's model or failed-
// assumption set is returned through the SatEngine interface the
// sequential Solver implements too. A writer attached with set_proof
// receives one checkable DRAT trace of the whole race (see set_proof).
//
// Consumers build their engine with make_engine (below), which picks a
// Solver or a PortfolioSolver by thread count:
//   std::unique_ptr<SatEngine> engine = make_engine(options, 4);
//   engine->load(cnf);
//   if (engine->solve_with_assumptions({}, Budget::wall_clock(10.0)) ==
//       SolveStatus::satisfiable)
//     use(engine->model());
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cnf/cnf_formula.h"
#include "cnf/icnf.h"
#include "cnf/literal.h"
#include "core/sat_engine.h"
#include "core/solver.h"
#include "portfolio/clause_exchange.h"
#include "portfolio/diversify.h"
#include "proof/splice.h"
#include "telemetry/telemetry.h"

namespace berkmin::portfolio {

struct PortfolioOptions {
  int num_threads = 4;
  // Clauses travel under ClauseExchange's default ExchangeLimits.
  bool share_clauses = true;
  // Seeds the diversification (tie-breaking seeds, fabricated variants).
  std::uint64_t base_seed = 0;
  // Explicit worker lineup; when empty, diversified_configs() supplies
  // num_threads workers. A longer one is truncated; a shorter one is
  // refused (the constructor throws std::invalid_argument).
  std::vector<WorkerConfig> configs;
  // Observability (src/telemetry): when set, every worker gets a
  // SolverTelemetry sink on this hub — phase timers, "solver.*" counter
  // flushes, and (with trace_workers) a per-worker trace ring named
  // "portfolio-w<i>" carrying restart / reduce / solve / exchange
  // events. Exchange stats are published as "exchange.*" counters after
  // every solve. The hub must outlive the portfolio.
  telemetry::Telemetry* telemetry = nullptr;
  bool trace_workers = true;
  // Resource governor (util/memory_budget.h): when set, every worker
  // solver charges its arena against this budget (degrading under
  // pressure, see Solver::set_memory_budget) and the clause exchange
  // charges its entries (publishes the budget cannot absorb are
  // dropped). The budget must outlive the portfolio.
  util::MemoryBudget* memory_budget = nullptr;
};

class PortfolioSolver final : public SatEngine {
 public:
  explicit PortfolioSolver(PortfolioOptions options = {});

  // ---- problem construction (mirrors Solver) ---------------------------
  Var new_var() override {
    const Var var = log_.num_vars();
    log_.declared_vars = var + 1;
    return var;
  }
  // Always true: the formula is only examined by the workers.
  bool add_clause(std::span<const Lit> lits) override;
  bool add_clause(std::initializer_list<Lit> lits) {
    return add_clause(std::span<const Lit>(lits.begin(), lits.size()));
  }
  bool load(const Cnf& cnf) override;

  // ---- incremental clause groups (mirrors Solver) ------------------------
  // Every group operation is recorded in the portfolio's construction log
  // and applied to every (warm) worker at the next solve, so all workers
  // keep identical internal layouts — which is what keeps the learned-
  // clause exchange sound across pops: surviving lemmas keep migrating
  // between workers through the existing ClauseExchange, and a shared
  // lemma tagged with a popped group's selector reduces to a satisfied
  // clause at import and is dropped. Workers stay warm across push/pop;
  // nothing is rebuilt.
  //
  // Handles are *named*: the portfolio assigns GroupIds from its own
  // monotone counter, which coincides with every worker Solver's counter
  // because the replayed push sequences are identical — so a portfolio
  // handle is directly meaningful to each worker. pop_group(id) retracts
  // any live group regardless of push order; set_group_active parks one
  // without retracting it; add_clause_to_group targets a specific live
  // group.
  //
  // Groups remain unsupported while a proof writer is attached: spliced
  // traces keep per-worker deletions, but checking a post-pop answer
  // needs the selector-elided incremental trace to be replayable in a
  // deterministic order across warm workers, which has not landed yet.
  //
  // Contract: push_group() returns the new group's handle (>= 0) on
  // success, or no_group — recording nothing — when a proof writer is
  // attached.
  GroupId push_group() override;
  // Retracts the named group; false (nothing recorded) for a dead handle.
  bool pop_group(GroupId id) override { return log_.append(icnf::Op::pop(id)); }
  bool set_group_active(GroupId id, bool active) override {
    return log_.append(icnf::Op::set_active(id, active));
  }
  bool add_clause_to_group(GroupId id, std::span<const Lit> lits) override {
    return log_.append(icnf::Op::clause_to(id, lits));
  }
  bool group_is_live(GroupId id) const override {
    return log_.groups().group_is_live(id);
  }
  GroupId innermost_group() const override {
    return log_.groups().innermost_group();
  }
  int num_groups() const override { return log_.groups().num_groups(); }

  // ---- solving ---------------------------------------------------------
  // The budget applies to every worker independently (a wall-clock budget
  // therefore bounds the whole race). Returns unknown only when no worker
  // reached an answer within the budget.
  //
  // Workers stay warm across calls: the first solve builds the lineup and
  // loads the formula, later calls only feed clauses added since, so
  // learned clauses, activities and exchange cursors carry over — repeated
  // assumption queries and budget slices resume instead of restarting.
  SolveStatus solve(const Budget& budget = Budget::unlimited());
  SolveStatus solve_with_assumptions(
      std::span<const Lit> assumptions,
      const Budget& budget = Budget::unlimited()) override;

  // Thread-safe: cancels an in-flight solve (every worker returns unknown
  // at its next search step unless it already finished). Sticky, matching
  // Solver's contract: a request that races the start of solve() still
  // cancels it, and later solves stay cancelled until clear_stop().
  void request_stop() override {
    user_stop_.store(true, std::memory_order_relaxed);
  }
  void clear_stop() override {
    user_stop_.store(false, std::memory_order_relaxed);
  }

  // ---- results (valid after solve) -------------------------------------
  const std::vector<Value>& model() const override { return model_; }
  bool model_value(Lit l) const {
    return value_of_literal(model_[l.var()], l) == Value::true_value;
  }
  const std::vector<Lit>& failed_assumptions() const override {
    return failed_assumptions_;
  }
  // The sum of the last call's worker slices; a worker that died during
  // the call contributes nothing. Read after the workers joined.
  const SliceStats& last_slice() const override { return last_slice_; }
  // The winner's stats (empty when the last solve answered unknown) with
  // exported_clauses, imported_clauses and duplicate_binaries_skipped
  // summed over every worker.
  const SolverStats& stats() const override { return stats_; }
  // Workers own their telemetry sinks (PortfolioOptions::telemetry).
  void set_telemetry(const telemetry::SolverTelemetry*) override {}
  const RaceReport& race() const override { return race_; }

  // ---- proof logging ----------------------------------------------------
  // With a writer attached before the first solve, every worker logs its
  // clause additions and deletions through one proof::ProofSplicer. When
  // a solve refutes the formula (UNSAT with no failed assumptions), the
  // spliced trace — merged by global sequence number — is replayed into
  // the writer, once: it ends with the empty clause and proof::DratChecker
  // verifies it against the loaded formula, whichever worker won and
  // however clauses were exchanged. Deletions survive splicing (deletions
  // of still-shared clauses are deferred until every importer logged its
  // copy), which keeps a checker's live database bounded on long races.
  // A writer attached after the first solve receives nothing.
  void set_proof(proof::ProofWriter* writer) override { proof_ = writer; }

  // ---- warm-worker introspection (tests, tools) -------------------------
  // The id-th worker engine, or nullptr before the first solve / out of
  // range. The first solve builds the worker lineup; the same Solver
  // objects then serve every later call. Only valid to inspect while no
  // solve is in flight.
  const Solver* worker(int id) const {
    return id >= 0 && id < static_cast<int>(solvers_.size())
               ? solvers_[static_cast<std::size_t>(id)].get()
               : nullptr;
  }

 private:
  // Builds the diversified lineup, exchange and worker solvers (first
  // solve only), then feeds any clauses added since the previous call. No
  // worker eliminates variables, whatever its configuration asks: an
  // eliminated variable may still occur in a sibling's exchanged clauses.
  void warm_up_workers();

  PortfolioOptions opts_;

  // Construction log: every clause add and group operation, in order, as
  // icnf ops (popped groups' clauses included), the variable count and the
  // groups every worker has once it applied them. Workers apply the log
  // from replayed_ops_ at each solve — identical sequences give identical
  // internal variable *and group-id* layouts, the invariant clause
  // exchange (and the portfolio's handle mirroring) relies on.
  icnf::Script log_;
  std::size_t replayed_ops_ = 0;

  // Warm state, created by the first solve and reused afterwards.
  std::vector<std::unique_ptr<Solver>> solvers_;
  std::vector<std::string> worker_names_;
  // Worker-death bookkeeping: dead_[i] marks a worker whose solve threw.
  // Its Solver object is poisoned (arbitrary internal state mid-search)
  // and is never replayed into or solved with again; its exchange cursor
  // is retired. dead_errors_[i] keeps the exception message for reports.
  std::vector<char> dead_;
  std::vector<std::string> dead_errors_;
  std::unique_ptr<ClauseExchange> exchange_;
  // Built by the first solve when a writer is attached; proof_replayed_
  // latches once the refutation has been replayed into proof_.
  proof::ProofWriter* proof_ = nullptr;
  std::unique_ptr<proof::ProofSplicer> splicer_;
  bool proof_replayed_ = false;

  // Telemetry wiring (opts_.telemetry != nullptr): one sink per worker
  // (stable addresses — workers hold pointers into this vector), a
  // per-worker exported-clause tally batched into export_batch events at
  // restarts, and the exchange-stats cursor already published to the hub.
  std::vector<std::unique_ptr<telemetry::SolverTelemetry>> sinks_;
  std::vector<std::uint64_t> pending_exports_;
  ExchangeStats exchange_seen_;
  void publish_exchange_stats();

  // User cancellation only; never reset by solve itself. Race
  // cancellation goes through each worker Solver's own request_stop().
  std::atomic<bool> user_stop_{false};

  std::vector<Value> model_;
  std::vector<Lit> failed_assumptions_;
  RaceReport race_;
  SliceStats last_slice_;
  SolverStats stats_;
};

// The one engine factory: every consumer builds its engine here, so a
// thread count means the same engine everywhere.
// - threads <= 1: a Solver running `options`, charging
//   shared.memory_budget. Given `spare` — an engine this factory built at
//   one thread, whose owner is done with it — the solver starts in the
//   spare's buffers (Solver(options, spent)).
// - threads > 1: a PortfolioSolver whose worker 0 runs `options` unchanged
//   and whose siblings jitter only its restart/decay schedule and seed
//   (diversify_around, seeded by options.seed), so presets, seeds and
//   inprocessing mean the same at every thread count. From `shared` it
//   takes share_clauses, telemetry, trace_workers and memory_budget; the
//   lineup fields are its own.
// The caller attaches a single solver's telemetry sink and any proof
// writer through SatEngine.
std::unique_ptr<SatEngine> make_engine(
    const SolverOptions& options, int threads, PortfolioOptions shared = {},
    std::unique_ptr<SatEngine> spare = nullptr);

}  // namespace berkmin::portfolio
