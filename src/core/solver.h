// The BerkMin CDCL solver.
//
// One engine implements every configuration the paper evaluates: the
// BerkMin heuristics, the Chaff-like baseline, and each ablation of
// Tables 1, 2, 4 and 5 — selected through SolverOptions. The engine is a
// conflict-driven clause-learning solver with two-watched-literal BCP
// (Section 2 / SATO), first-UIP conflict analysis with non-chronological
// backtracking (GRASP), restarts, and BerkMin's decision making and clause
// database management (Sections 4-8).
//
// Typical use:
//   Solver solver(SolverOptions::berkmin());
//   solver.load(cnf);
//   if (solver.solve(Budget::wall_clock(10.0)) == SolveStatus::satisfiable)
//     use(solver.model());
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "cnf/cnf_formula.h"
#include "cnf/literal.h"
#include "core/clause_arena.h"
#include "core/indexed_heap.h"
#include "core/options.h"
#include "core/sat_engine.h"
#include "core/solver_types.h"
#include "core/watch_pool.h"
#include "telemetry/solver_telemetry.h"
#include "util/rng.h"
#include "util/timer.h"

namespace berkmin {

namespace proof {
class ProofWriter;
}

namespace util {
class MemoryBudget;
}

class Inprocessor;

class Solver final : public SatEngine {
 public:
  explicit Solver(SolverOptions options = SolverOptions::berkmin());
  // A solver exactly as Solver(options) builds it, whose clause, watch and
  // per-variable tables start in `spent`'s buffers: a caller that runs one
  // solver after another (a service's sessions) keeps their memory
  // instead of freeing it and faulting fresh pages in for the next one.
  // `spent` is left empty and can only be destroyed.
  Solver(SolverOptions options, Solver&& spent);
  ~Solver() override;

  // ---- problem construction -------------------------------------------
  // The solver distinguishes *external* variables (the caller's dense
  // 0-based numbering: clauses, assumptions, models, failed-assumption
  // cores and DRAT traces all use it) from *internal* variables, which
  // additionally include the selector variables allocated by push_group.
  // While no group was ever pushed the two numberings coincide, so
  // existing non-incremental callers see no change.
  Var new_var() override;
  int num_vars() const { return static_cast<int>(ext2int_.size()); }
  // Internal width, selectors included (introspection/validation only).
  int num_internal_vars() const { return static_cast<int>(assign_.size()); }

  // Adds a clause at the root level. Tautologies are dropped; duplicate
  // literals are merged; root-false literals are stripped. Returns false
  // when the formula has become unsatisfiable at the root.
  bool add_clause(std::span<const Lit> lits) override;
  bool add_clause(std::initializer_list<Lit> lits);

  // Loads every clause of a CNF (creating variables as needed).
  bool load(const Cnf& cnf) override;

  // ---- incremental clause groups (named push/pop) -----------------------
  // MiniSat-style scoped clause groups, implemented with internal selector
  // literals. push_group() opens a group and returns its handle: every
  // clause added afterwards (until another group is pushed or this one is
  // popped) is tagged with the group's selector s and stored as C OR s,
  // and every solve assumes NOT s, so the clause behaves exactly like C
  // while the group is live. pop_group(id) retracts *any* live group,
  // regardless of push order, by asserting s at the root: the group's
  // clauses (and every learned clause whose derivation touched them —
  // conflict analysis makes such lemmas inherit the selector literal)
  // become satisfied and are collected immediately, while learned clauses
  // whose derivations are selector-independent are *retained* as
  // consequences of the remaining formula. The popped group's selector
  // variable returns to a free-list and is reused by a later push_group
  // (SolverStats::selectors_recycled), so internal variable growth is
  // bounded by the peak number of simultaneously live groups.
  //
  // Selectors are invisible outside the solver: they are frozen out of the
  // decision heuristics, elided from models, failed-assumption cores and
  // DRAT traces (traces are emitted in external numbering). All group
  // calls require decision level 0 — i.e. between solves.
  GroupId push_group() override;
  // Retracts the group with handle `id`. Returns false (and does nothing)
  // when the handle does not name a live group.
  bool pop_group(GroupId id) override;
  int num_groups() const override {
    return static_cast<int>(group_selectors_.size());
  }
  // Handle of the most recently pushed live group (no_group when none).
  GroupId innermost_group() const override {
    return group_ids_.empty() ? no_group : group_ids_.back();
  }
  // Live selector literals, push order preserved, innermost last
  // (introspection for tests; internal numbering).
  const std::vector<Lit>& group_selectors() const { return group_selectors_; }
  bool group_is_live(GroupId id) const override {
    return group_index(id) >= 0;
  }

  // Adds a clause into a specific live group rather than the innermost
  // one: the clause is stored as C OR s_id, exactly as if it had been
  // added right after push_group returned `id`. Returns false when the
  // formula is root-unsatisfiable (add_clause's contract) and for a dead
  // handle, which is a refusal: nothing is added (group_is_live(id)
  // distinguishes the two).
  bool add_clause_to_group(GroupId id, std::span<const Lit> lits) override;

  // Enables / disables a live group for subsequent solves without
  // retracting it: an inactive group's selector is assumed *true*, so its
  // clauses (and every lemma whose derivation touched it) are satisfied
  // and inert for the solve. Persistent until changed; groups start
  // active. Does not mutate the clause database. Returns false for a dead
  // handle.
  bool set_group_active(GroupId id, bool active) override;
  bool group_is_active(GroupId id) const {
    const int i = group_index(id);
    return i >= 0 && group_active_[static_cast<std::size_t>(i)] != 0;
  }

  bool is_selector_var(Var internal_var) const {
    return internal_var >= 0 &&
           internal_var < num_internal_vars() &&
           is_selector_[static_cast<std::size_t>(internal_var)] != 0;
  }
  // Popped selector variables currently awaiting reuse (introspection).
  std::size_t free_selector_count() const { return free_selectors_.size(); }

  // ---- solving ----------------------------------------------------------
  // Returns satisfiable/unsatisfiable, or unknown if the budget expired.
  // May be called repeatedly; clauses can be added between calls.
  SolveStatus solve(const Budget& budget = Budget::unlimited());

  // Incremental interface: solves under the conjunction of `assumptions`
  // (tried as the first decisions, in order, after the active groups'
  // selector assumptions). An unsatisfiable answer means "unsatisfiable
  // under these assumptions and the active groups" — the solver stays
  // usable, and failed_assumptions() returns a subset of the *caller's*
  // assumptions that, together with the active groups, already suffices
  // for the conflict (selector literals are filtered out, so the set may
  // be empty when the active groups alone are responsible). A conflict
  // independent of assumptions and groups makes the formula permanently
  // unsatisfiable (ok() false).
  SolveStatus solve_with_assumptions(
      std::span<const Lit> assumptions,
      const Budget& budget = Budget::unlimited()) override;
  const std::vector<Lit>& failed_assumptions() const override {
    return failed_assumptions_;
  }

  bool ok() const { return ok_; }

  // ---- resumable slices --------------------------------------------------
  // Why the last solve() returned unknown (StopCause::none after a
  // definitive answer). Budget causes are resumable: calling solve() again
  // continues the search with every learned clause, activity and saved
  // polarity intact, which is what lets a scheduler run a long job as many
  // short Budget-bounded slices.
  StopCause last_stop_cause() const { return last_stop_cause_; }
  // Work performed by the most recent solve() call only (deltas of the
  // cumulative stats()), for per-slice accounting.
  const SliceStats& last_slice() const override { return last_slice_; }

  // ---- external cancellation --------------------------------------------
  // Thread-safe: any thread may ask a running solve() to stop; the search
  // notices at the next loop iteration and returns SolveStatus::unknown.
  // The request is sticky until clear_stop(), so a stop issued just before
  // solve() still cancels it. A portfolio can additionally broadcast one
  // flag to many solvers through set_external_stop().
  void request_stop() override {
    stop_requested_.store(true, std::memory_order_relaxed);
  }
  void clear_stop() override {
    stop_requested_.store(false, std::memory_order_relaxed);
  }
  void set_external_stop(const std::atomic<bool>* flag) { external_stop_ = flag; }
  bool stop_requested() const {
    return stop_requested_.load(std::memory_order_relaxed) ||
           (external_stop_ != nullptr &&
            external_stop_->load(std::memory_order_relaxed));
  }

  // ---- clause sharing (portfolio) ---------------------------------------
  // Adds a clause learned by a sibling solver. Must be called at decision
  // level 0 (add_clause's contract) — in a portfolio that means from the
  // restart callback or between solve() calls. Counted separately from the
  // problem clauses in stats().imported_clauses. The literals are in the
  // sibling's *internal* numbering (portfolio workers replay identical
  // construction sequences, so their internal layouts — selector variables
  // included — coincide); a shared lemma tagged with a selector the
  // importer has since popped reduces to a satisfied clause and is
  // dropped, keeping cross-call migration sound across push/pop.
  // `glue` is the producer's literal-block distance for the clause (0 =
  // unknown); the importer caches it so the emergency reduction treats
  // shared lemmas by quality rather than pinning them as core. Clauses
  // mentioning a variable this solver has eliminated by inprocessing are
  // dropped (the importer's root simplification of such a clause would
  // lean on the arbitrary witness assignment, which is not a consequence).
  bool import_clause(std::span<const Lit> lits, std::uint32_t glue = 0);
  // Bumps stats().exported_clauses; called by the owner of the learn
  // callback when a clause was accepted by a sharing pool.
  void note_exported_clause() { ++stats_.exported_clauses; }
  // Glue (distinct decision levels at learn time) of the clause most
  // recently handed to the learn callback; 1 for learned units. Lets the
  // callback publish quality information without re-deriving it.
  std::uint32_t last_learned_glue() const { return last_learned_glue_; }

  // Invoked at the end of every restart, at decision level 0 after the
  // database reduction — the safe point for importing shared clauses.
  using RestartCallback = std::function<void()>;
  void set_restart_callback(RestartCallback cb) {
    restart_callback_ = std::move(cb);
  }

  // Model of the last satisfiable solve, indexed by *external* variable
  // (selector variables are elided).
  const std::vector<Value>& model() const override { return model_; }
  bool model_value(Lit l) const {
    return value_of_literal(model_[l.var()], l) == Value::true_value;
  }

  const SolverStats& stats() const override { return stats_; }
  const SolverOptions& options() const { return opts_; }

  // ---- resource governor ------------------------------------------------
  // Attaches a shared MemoryBudget (util/memory_budget.h). The solver
  // charges its clause-arena storage against the budget and degrades
  // gracefully under pressure instead of dying on bad_alloc:
  //   soft     — an emergency reduction at the next restart keeps only the
  //              glue-core tier of the learned database;
  //   hard     — inprocessing is additionally switched off (re-enabled
  //              when pressure recedes);
  //   critical — learned-clause storage is denied outright and each such
  //              conflict resolves by a sound no-learn restart (backtrack
  //              to the root, store nothing, assert nothing).
  // The budget must outlive the solver; pass nullptr to detach. Every
  // degradation bumps the budget's degrade-event counter and the solver's
  // no_learn_restarts / pressure_reductions stats.
  void set_memory_budget(util::MemoryBudget* budget);

  // ---- telemetry --------------------------------------------------------
  // Attaches a telemetry sink (src/telemetry): phase timers around BCP /
  // analyze / decide / reduce / garbage_collect, trace events for
  // restarts, reductions and conflict-rate samples, and periodic flushes
  // of the SolverStats deltas into the hub's shared "solver.*" counters
  // (at every restart and at the end of every solve). The sink must
  // outlive any solve it observes; pass nullptr to detach. While detached
  // every instrumentation site costs a single branch. The solver keeps its
  // own publish cursor, so sinks can be swapped per-slice (the service
  // attaches the current worker's sink) without double counting.
  void set_telemetry(const telemetry::SolverTelemetry* sink) override {
    telemetry_ = sink;
  }

  // ---- proof logging ----------------------------------------------------
  // Called with every learned clause (and every clause shortened by
  // root-level strengthening); the portfolio exports clauses through it.
  using ClauseCallback = std::function<void(std::span<const Lit>)>;
  void set_learn_callback(ClauseCallback cb) { learn_callback_ = std::move(cb); }

  // Full proof instrumentation (src/proof/): the writer sees every clause
  // the database gains (learned clauses, learned units, imported clauses,
  // clauses shortened by root-level strengthening) and loses (reductions,
  // strengthening), plus the final empty clause when the formula is
  // refuted — a complete, checkable DRAT trace. Orthogonal to the learn
  // callback, so a portfolio can export clauses and log a proof at the
  // same time. The writer must outlive the solver's
  // solving calls; pass nullptr to detach.
  void set_proof(proof::ProofWriter* writer) override { proof_ = writer; }
  proof::ProofWriter* proof() const { return proof_; }

  // ---- introspection (tests, instrumentation, tools) --------------------
  Value value(Var v) const { return assign_[v]; }
  // One load: the literal-indexed mirror of assign_ is maintained on every
  // enqueue/backtrack, so no sign arithmetic happens on the BCP hot path.
  Value value(Lit l) const { return assign_lit_[l.code()]; }
  int decision_level() const { return static_cast<int>(trail_lim_.size()); }
  std::size_t num_learned() const { return learned_stack_.size(); }
  std::size_t num_originals() const { return originals_.size(); }
  std::uint64_t var_activity(Var v) const { return var_activity_[v]; }
  std::uint64_t lit_activity(Lit l) const { return lit_activity_[l.code()]; }
  std::uint64_t chaff_counter(Lit l) const { return chaff_counter_[l.code()]; }
  std::uint32_t current_old_threshold() const { return old_threshold_; }
  // True once inprocessing's bounded variable elimination removed the
  // (internal) variable from the clause database; its model value is
  // reconstructed from the elimination witness in save_model.
  bool var_eliminated(Var internal_var) const {
    return internal_var >= 0 &&
           static_cast<std::size_t>(internal_var) < eliminated_.size() &&
           eliminated_[static_cast<std::size_t>(internal_var)] != 0;
  }

  // Section 7 cost function, exposed for tests and analysis tools:
  // an estimate of the number of binary clauses in the neighborhood of l
  // in the current (partially assigned) formula.
  std::uint64_t nb_two(Lit l) const;

  // ---- low-level stepping API -------------------------------------------
  // For tests, debuggers and incremental experiments: push a decision
  // level assuming `l`, run propagation (returns the conflicting clause or
  // no_clause), and undo back to `level`.
  void assume(Lit l);
  ClauseRef propagate();
  void backtrack_to(int level);

  // Performs full conflict handling for a clause returned by propagate():
  // 1-UIP analysis, activity bookkeeping, non-chronological backtracking,
  // clause recording, assertion of the learned literal. At decision level
  // 0 the formula is unsatisfiable and ok() becomes false.
  void resolve_conflict(ClauseRef conflict);
  // The clause learned by the most recent conflict (1-UIP literal first).
  const std::vector<Lit>& last_learned_clause() const { return learned_scratch_; }

  // Computes the next branching literal exactly as the search loop would
  // (Sections 5-7), consuming heap state like a real decision. Returns
  // undef_lit when every variable is assigned. Pair with assume() to step
  // the solver manually.
  Lit decide_next_branch() { return pick_branch(); }

  // Abandons the current search tree and runs the configured database
  // management (Section 8), exactly as a scheduled restart would.
  void restart_now() { handle_restart(); }

  // Literals of a live clause, copied out (test/bench introspection).
  std::vector<Lit> clause_literals(ClauseRef ref) const;
  // Activity counter of a live clause (test/bench introspection).
  std::uint32_t clause_activity(ClauseRef ref) const;
  const std::vector<ClauseRef>& learned_stack() const { return learned_stack_; }
  // The long-clause and binary watch pools (test introspection).
  const WatchPool& watch_pool() const { return watches_; }
  const BinWatchPool& bin_watch_pool() const { return bin_watches_; }

  // Full internal-consistency check (watches, trail, reasons, stack
  // bookkeeping). Returns an empty string when every invariant holds,
  // else a description of the first violation. O(database); meant for
  // tests and debugging, not for the solving hot path.
  std::string validate_invariants() const;

 private:
  // --- search loop (solver.cpp) ---
  // `resume` continues a budget-stopped slice without resetting the
  // restart/decay pacing (see solve_with_assumptions).
  SolveStatus search(const Budget& budget, bool resume);
  bool budget_exhausted(const Budget& budget);
  // Flushes stats to the telemetry hub and emits the solve span event.
  // No-op while detached.
  void telemetry_finish_solve(std::int64_t start_ns, SolveStatus status);
  // Decides the next assumption (or returns undef_lit to fall through to
  // the heuristics); sets *failed when an assumption is already false.
  Lit next_assumption(bool* failed);
  // Collects the subset of assumptions responsible for forcing ~failing.
  void analyze_final(Lit failing);
  void new_decision_level() { trail_lim_.push_back(static_cast<int>(trail_.size())); }
  // bin_other != undef_lit marks a binary-clause reason: the reason clause
  // is {l, bin_other}, and conflict analysis reconstructs it from
  // bin_reason_other_ without touching the arena.
  void enqueue(Lit l, ClauseRef reason, Lit bin_other = undef_lit);
  ClauseRef propagate_internal();
  void attach_clause(ClauseRef ref);
  // Adds an original clause to the occurrence lists and attaches it.
  void attach_original(ClauseRef ref);
  // Counts the two watchers attach_clause(c) pushes, per watched literal.
  static void count_watches(const Clause& c,
                            std::vector<std::uint32_t>& watch_counts,
                            std::vector<std::uint32_t>& bin_counts);
  // True when an identical two-literal clause is already attached.
  bool binary_clause_present(Lit a, Lit b) const;
  // Normalizes and records a clause at the root level; learned selects
  // whether it joins the originals or the reducible learned stack. `glue`
  // is cached on learned clauses for the emergency reduction (0 =
  // unknown).
  bool add_root_clause(std::span<const Lit> lits, bool learned,
                       std::uint32_t glue = 0);
  ClauseRef add_clause_internal(std::span<const Lit> lits, bool learned,
                                std::uint32_t glue = 0);
  // Allocates one internal variable; selectors stay out of the decision
  // heaps and the external numbering.
  Var new_internal_var(bool selector);
  // Position of `id` in the live-group vectors, or -1.
  int group_index(GroupId id) const;
  // Detaches a popped group's selector variable: removes the (root-true)
  // selector from the trail — sound because after the pop's collection no
  // stored clause mentions the variable at all — clears its per-variable
  // state, and pushes it onto free_selectors_ for reuse.
  void recycle_selector(Var v);
  // Maps an external literal into internal numbering, creating the
  // external variable (and its internal twin) on demand.
  Lit external_to_internal(Lit l);
  // Copies `lits` into proof_scratch_ in external numbering with selector
  // literals elided. Returns false when the step must be suppressed (the
  // clause is selector-only and has no external meaning).
  bool project_for_proof(std::span<const Lit> lits);
  void save_model();
  void record_slice();
  std::uint64_t next_restart_limit() const;
  void update_live_peak();
  // Re-charges the attached MemoryBudget with the arena's current
  // capacity delta (called after growth and after garbage collection).
  void sync_budget_charge();
  // True when storing a learned clause must be refused (critical budget
  // pressure or an injected allocation fault); see record_learned.
  bool deny_learned_alloc();
  // Applies the pressure ladder at the restart safe point (reduce.cpp).
  // Returns true when an emergency reduction already ran (the regular
  // reduce_db is skipped for that restart).
  bool apply_pressure_ladder();

  // --- conflict analysis (analyze.cpp) ---
  // Produces an asserting 1-UIP clause (learned[0] is the asserting
  // literal) and the backtrack level; performs all activity bookkeeping
  // prescribed by the active ActivityPolicy.
  void analyze(ClauseRef conflict, std::vector<Lit>& learned, int& backtrack_level);
  void minimize_learned_clause(std::vector<Lit>& learned);
  bool literal_is_redundant(Lit l) const;
  void record_learned(const std::vector<Lit>& learned, int backtrack_level);
  void bump_var(Var v, std::uint64_t amount = 1);
  void bump_chaff(Lit l);
  void decay_var_activities();
  void decay_chaff_counters();

  // --- decisions (decide.cpp) ---
  // Returns the decision literal, or undef_lit when every variable is
  // assigned (the formula is satisfied).
  Lit pick_branch();
  // Finds the current top clause: the unsatisfied learned clause closest
  // to the top of the stack. Returns {no_clause, 0} if all are satisfied.
  struct TopClause {
    ClauseRef ref = no_clause;
    std::size_t distance = 0;
  };
  TopClause find_top_clause();
  bool clause_is_satisfied(ClauseRef ref) const;
  Var most_active_free_var(ClauseRef ref) const;
  Lit polarity_for_top_clause(Var v, ClauseRef top);
  Lit polarity_symmetrize(Var v);
  Lit polarity_nb_two(Var v);
  Lit pick_chaff_literal();
  Var pop_most_active_var();

  // --- restarts & database management (reduce.cpp) ---
  void handle_restart();
  void reduce_db();
  // Runs an inprocessing pass when one is due (opts_.inprocess); called
  // from handle_restart at the post-reduction safe point.
  void maybe_inprocess();
  // --- proof emission (solver.cpp) ---
  // No-ops while no writer is attached. proof_emit_empty records the final
  // empty clause exactly once, at the moment ok_ flips false for a root
  // conflict (never for assumption-failure answers, which leave the
  // formula satisfiable).
  void proof_emit_add(std::span<const Lit> lits);
  void proof_emit_delete(std::span<const Lit> lits);
  void proof_emit_empty();
  // Whether reduce_db keeps the learned clause at stack_index.
  bool keep_learned(std::size_t stack_index, std::size_t stack_size);
  // keep_originals, when non-null, masks original clauses the same way
  // keep_learned masks the learned stack (inprocessing removals); masked-
  // out clauses get a proof deletion via notify_deleted.
  void garbage_collect(const std::vector<char>& keep_learned,
                       const std::vector<char>* keep_originals = nullptr);
  void notify_deleted(ClauseRef ref);

  // --- configuration & state ---
  SolverOptions opts_;
  bool ok_ = true;

  ClauseArena arena_;
  std::vector<ClauseRef> originals_;
  // Section 5: chronologically ordered stack of conflict clauses;
  // back() is the youngest. satisfied_cache_[i] memoizes a literal seen
  // true in learned_stack_[i] to make top-clause scans cheap.
  std::vector<ClauseRef> learned_stack_;
  std::vector<Lit> satisfied_cache_;

  // Incremental clause groups. ext2int_/int2ext_ map the caller's dense
  // external variables to internal ones (identity until the first
  // push_group interleaves a selector); is_selector_ marks selector
  // variables. The live groups are three parallel vectors in push order
  // (innermost last): handle, selector literal, and the active flag
  // consulted when the solve builds its selector-assumption prefix.
  // free_selectors_ holds the selector variables of popped groups, ready
  // for reuse. has_selectors_ short-circuits the translation and
  // proof-projection paths for non-incremental use.
  std::vector<Var> ext2int_;
  std::vector<Var> int2ext_;
  std::vector<char> is_selector_;
  std::vector<GroupId> group_ids_;
  std::vector<Lit> group_selectors_;
  std::vector<char> group_active_;
  std::vector<Var> free_selectors_;
  GroupId next_group_id_ = 0;
  bool has_selectors_ = false;

  // Assignment state. assign_lit_ mirrors assign_ by literal code
  // (assign_lit_[l.code()] == value_of_literal(assign_[l.var()], l)), so
  // the inner loops evaluate a literal with a single load.
  std::vector<Value> assign_;
  std::vector<Value> assign_lit_;
  std::vector<ClauseRef> reason_;
  // For a variable propagated by a binary clause: the clause's other
  // literal (undef_lit otherwise). Lets analyze/redundancy walks resolve
  // binary reasons without dereferencing the arena.
  std::vector<Lit> bin_reason_other_;
  std::vector<int> level_;
  std::vector<Lit> trail_;
  std::vector<int> trail_lim_;
  std::size_t propagate_head_ = 0;

  // Watches, both stored as flat per-literal spans over one contiguous
  // pool (see core/watch_pool.h): watches_ for clauses of three or more
  // literals, bin_watches_ for the specialized two-literal lists that
  // propagate with zero arena derefs. occ_ holds full occurrence lists of
  // original clauses in the same layout (needed only by nb_two, whose scan
  // caps depend on each list keeping insertion order).
  WatchPool watches_;
  BinWatchPool bin_watches_;
  FlatWatchLists<ClauseRef> occ_;

  // Heuristic state.
  std::vector<std::uint64_t> var_activity_;
  std::vector<std::uint64_t> lit_activity_;   // conflict clauses ever containing l
  std::vector<std::uint64_t> chaff_counter_;  // Chaff-like literal counters

  struct VarOrder {
    const std::vector<std::uint64_t>* activity;
    bool operator()(int a, int b) const {
      if ((*activity)[a] != (*activity)[b]) return (*activity)[a] > (*activity)[b];
      return a < b;
    }
  };
  struct LitOrder {
    const std::vector<std::uint64_t>* counters;
    bool operator()(int a, int b) const {
      if ((*counters)[a] != (*counters)[b]) return (*counters)[a] > (*counters)[b];
      return a < b;
    }
  };
  IndexedHeap<VarOrder> var_heap_;
  IndexedHeap<LitOrder> lit_heap_;

  Rng rng_;

  // Conflict / restart scheduling.
  std::uint64_t conflicts_until_var_decay_ = 0;
  std::uint64_t conflicts_until_lit_decay_ = 0;
  std::uint64_t conflicts_since_restart_ = 0;
  std::uint32_t old_threshold_ = 60;
  std::uint32_t luby_index_ = 0;
  std::uint32_t restarts_since_inprocess_ = 0;

  // Glue of the most recent learned clause (see last_learned_glue()) and
  // the scratch used to compute it in resolve_conflict.
  std::uint32_t last_learned_glue_ = 0;
  std::vector<int> glue_scratch_;

  // Inprocessing: lazily constructed pass driver (owns the bounded
  // variable elimination witnesses consulted by save_model) and the
  // per-variable eliminated mask (internal numbering).
  friend class Inprocessor;
  std::unique_ptr<Inprocessor> inprocessor_;
  std::vector<char> eliminated_;

  // analyze() scratch.
  std::vector<char> seen_;
  std::vector<Var> to_clear_;
  std::vector<Lit> learned_scratch_;
  mutable std::vector<Lit> callback_scratch_;
  // Proof-projection scratch; distinct from callback_scratch_, which may
  // hold the unprojected literals of the same step (notify_deleted).
  std::vector<Lit> proof_scratch_;
  // add_root_clause scratch: the translated/selector-tagged input, then
  // normalized and root-reduced in place.
  std::vector<Lit> add_scratch_;
  // garbage_collect's buffers, kept between collections: the spare arena
  // the clauses move into (the old arena becomes the next spare, except
  // under a memory budget), the originals' new references, a clause's
  // kept literals, the watcher counts, and the keep mask its callers in
  // this solver fill.
  ClauseArena gc_arena_;
  std::vector<ClauseRef> gc_refs_;
  std::vector<Lit> gc_stripped_;
  std::vector<std::uint32_t> gc_watch_counts_;
  std::vector<std::uint32_t> gc_bin_counts_;
  std::vector<char> gc_keep_;

  // Resource governor state (see set_memory_budget). charged_bytes_ is
  // what this solver currently holds against the budget;
  // pressure_reduce_pending_ requests an emergency glue-core-only
  // reduction at the next restart; inprocess_pressure_disabled_ remembers
  // that hard pressure (not the user) turned inprocessing off so it can
  // be re-enabled when pressure recedes.
  util::MemoryBudget* budget_ = nullptr;
  std::uint64_t budget_charged_bytes_ = 0;
  bool pressure_reduce_pending_ = false;
  bool inprocess_pressure_disabled_ = false;
  // Escape valve for a budget pinned at critical (e.g. a limit smaller
  // than the base formula): after pressure_deny_limit_ consecutive
  // pressure denials one lemma is admitted anyway and the limit halves,
  // so the search keeps converging instead of looping no-learn restarts
  // forever. The limit re-arms when pressure recedes. Injected faults
  // don't count — their fire caps already bound them.
  static constexpr std::uint32_t kPressureDenyLimit = 32;
  std::uint32_t pressure_deny_streak_ = 0;
  std::uint32_t pressure_deny_limit_ = kPressureDenyLimit;
  // When an emergency reduction leaves pressure still critical this many
  // restarts in a row, the limit is unattainable (held down by the base
  // formula or external charge): the governor marks the budget infeasible
  // for this solve and stops denying lemmas and shedding the database —
  // a correct answer beats thrashing forever. Probed afresh each solve().
  static constexpr std::uint32_t kInfeasibleCriticalStreak = 8;
  std::uint32_t critical_reduce_streak_ = 0;
  bool budget_infeasible_ = false;

  std::vector<Value> model_;
  SolverStats stats_;
  WallTimer solve_timer_;
  StopCause last_stop_cause_ = StopCause::none;
  SliceStats last_slice_;
  // Cumulative-counter snapshot taken when solve() starts; budgets and
  // last_slice() are measured from here.
  struct SliceBase {
    std::uint64_t conflicts = 0;
    std::uint64_t decisions = 0;
    std::uint64_t propagations = 0;
    std::uint64_t restarts = 0;
    std::uint64_t learned_clauses = 0;
  };
  SliceBase slice_base_;

  // Per-call assumption state (solve_with_assumptions).
  std::vector<Lit> assumptions_;
  std::vector<Lit> failed_assumptions_;
  bool failed_by_assumptions_ = false;
  // add_clause_to_group: selector the next add_root_clause must tag the
  // clause with instead of the innermost group's (undef_lit = default).
  Lit forced_selector_ = undef_lit;
  // Set while load() stores its clauses; it attaches them all at the end.
  bool loading_ = false;

  ClauseCallback learn_callback_;
  RestartCallback restart_callback_;
  proof::ProofWriter* proof_ = nullptr;
  bool proof_emitted_empty_ = false;

  // External cancellation (see request_stop). The atomic makes Solver
  // non-copyable, which every current use site already respects.
  std::atomic<bool> stop_requested_{false};
  const std::atomic<bool>* external_stop_ = nullptr;

  // Telemetry sink (nullable) and the cumulative stats values already
  // flushed to it; see set_telemetry().
  const telemetry::SolverTelemetry* telemetry_ = nullptr;
  telemetry::StatsCursor telemetry_seen_;
};

}  // namespace berkmin
