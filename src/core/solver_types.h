// Shared types for the CDCL core: clause references, budgets, results,
// and the statistics block that backs the paper's instrumentation tables.
#pragma once

#include <cstdint>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "cnf/literal.h"

namespace berkmin {

// Empties `from` into `into`, which takes its buffer: an object built to
// succeed a finished one keeps the capacity it had grown to.
template <class T>
void reuse_buffer(std::vector<T>& into, std::vector<T>& from) {
  into.swap(from);
  into.clear();
}

// Index of a clause inside the ClauseArena. Stable until the next garbage
// collection (which remaps all references it keeps).
using ClauseRef = std::uint32_t;
inline constexpr ClauseRef no_clause = std::numeric_limits<ClauseRef>::max();

// Handle of a clause group (Solver::push_group). Ids are assigned by a
// monotone per-solver counter and are never reused, so a stale handle can
// be detected; the selector *variable* behind a popped group, by contrast,
// is recycled through a free-list.
using GroupId = int;
inline constexpr GroupId no_group = -1;
// Names "the innermost live group" where an operation takes a group
// (icnf::Op::pop() retracts it); whoever applies the operation resolves it
// through the engine's innermost_group().
inline constexpr GroupId innermost_group = no_group - 1;

// One entry of a watch list. `blocker` is some other literal of the clause;
// if it is already true the clause is satisfied and need not be visited.
struct Watcher {
  ClauseRef cref = no_clause;
  Lit blocker;
};

// One entry of a *binary* watch list. A two-literal clause {a, b} is fully
// described by its entries in the lists of ~a and ~b: when ~other becomes
// false, `other` is implied (or conflicting) with no clause-arena access
// at all. `cref` keeps the arena identity for conflict analysis, proof
// logging and database management.
struct BinWatch {
  Lit other;
  ClauseRef cref = no_clause;
};

enum class SolveStatus : std::uint8_t {
  satisfiable,
  unsatisfiable,
  unknown,  // a resource budget expired first
};

const char* to_string(SolveStatus status);

// Why the last solve() returned unknown. Budget causes are *resumable*:
// the search state (learned clauses, activities, saved polarities) is
// intact and another solve() call continues where the slice stopped — the
// contract the time-sliced SolverService scheduler relies on. An external
// stop is a cancellation, not a pause: whoever set the flag decides what
// happens next.
enum class StopCause : std::uint8_t {
  none,                // the last solve reached a definitive answer
  external_stop,       // request_stop() / set_external_stop() fired
  conflict_budget,
  decision_budget,
  propagation_budget,
  wall_clock,
};

const char* to_string(StopCause cause);

inline bool is_resumable(StopCause cause) {
  return cause != StopCause::none && cause != StopCause::external_stop;
}

// Work done by a single solve() call, as deltas of the cumulative
// SolverStats counters. The service scheduler charges these against
// per-job budgets and aggregates them into throughput stats.
struct SliceStats {
  std::uint64_t conflicts = 0;
  std::uint64_t decisions = 0;
  std::uint64_t propagations = 0;
  std::uint64_t restarts = 0;
  std::uint64_t learned_clauses = 0;
  double seconds = 0.0;
};

// Resource limits for a single solve() call, measured against the work
// that call performs (not the solver's lifetime counters): a solver that
// already spent 10k conflicts and is handed Budget::conflicts(100) gets
// 100 more. Zero means "unlimited".
struct Budget {
  std::uint64_t max_conflicts = 0;
  std::uint64_t max_decisions = 0;
  std::uint64_t max_propagations = 0;
  double max_seconds = 0.0;

  static Budget unlimited() { return {}; }

  static Budget conflicts(std::uint64_t n) {
    Budget b;
    b.max_conflicts = n;
    return b;
  }

  static Budget decisions(std::uint64_t n) {
    Budget b;
    b.max_decisions = n;
    return b;
  }

  static Budget wall_clock(double seconds) {
    Budget b;
    b.max_seconds = seconds;
    return b;
  }
};

// Every monotone SolverStats counter, defined once as X(field). SolverStats
// declares one std::uint64_t per entry, and telemetry exports each as the
// hub counter "solver.<field>" (telemetry/solver_telemetry.h), so a counter
// added here is exported with no further edit. Groups, in order:
//  * search: decisions, propagations, conflicts, restarts, reductions;
//  * learning: learned clauses/literals/units, deletions, root-level
//    strengthenings, and literals removed by minimization;
//  * inprocessing (src/core/inprocess.*): passes run, root units proven by
//    failed-literal probing, clauses shortened by vivification, clauses
//    removed by (self-)subsumption, variables eliminated by bounded
//    variable elimination;
//  * decision sources: the top clause (Section 5) or the global heuristic;
//  * resource governor (util/memory_budget.h) and fault injection:
//    restarts taken without storing a learned clause whose allocation was
//    denied, emergency reductions forced by memory pressure, and solves
//    whose budget the governor gave up on (emergency reductions could not
//    leave the critical band, so the solve ran to a correct answer);
//  * portfolio clause sharing (src/portfolio): clauses exported to and
//    imported from a sharing pool, and imported binaries dropped as
//    duplicates of a clause already present;
//  * clause groups (Solver::push_group): pushes, pops, the learned stack
//    split at each pop into kept (selector-independent) and dropped
//    lemmas, and pushes served by a recycled selector variable, which
//    bounds internal variable growth by the peak number of live groups.
#define BERKMIN_SOLVER_COUNTERS(X)                                        \
  X(decisions) X(propagations) X(conflicts) X(restarts) X(reductions)    \
  X(learned_clauses) X(learned_literals) X(learned_units)                \
  X(deleted_clauses) X(strengthened_clauses) X(minimized_literals)       \
  X(inprocessings) X(probed_units) X(vivified_clauses)                   \
  X(subsumed_clauses) X(eliminated_vars)                                 \
  X(top_clause_decisions) X(global_decisions)                            \
  X(no_learn_restarts) X(pressure_reductions) X(budget_infeasible_solves) \
  X(exported_clauses) X(imported_clauses) X(duplicate_binaries_skipped)  \
  X(groups_pushed) X(groups_popped) X(pop_retained_learned)              \
  X(pop_dropped_learned) X(selectors_recycled)

// Counters exposed through Solver::stats(). The skin histogram and the
// database-size counters feed Tables 3, 8 and 9 of the paper directly.
struct SolverStats {
#define BERKMIN_DECLARE_COUNTER(field) std::uint64_t field = 0;
  BERKMIN_SOLVER_COUNTERS(BERKMIN_DECLARE_COUNTER)
#undef BERKMIN_DECLARE_COUNTER

  // Live database tracking (Table 9). initial_clauses is fixed at the first
  // solve() call; max_live_clauses tracks originals + learned still stored.
  std::uint64_t initial_clauses = 0;
  std::uint64_t max_live_clauses = 0;

  // Skin effect (Table 3): skin_histogram[r] counts decisions whose current
  // top clause sat at distance r from the top of the learned-clause stack.
  std::vector<std::uint64_t> skin_histogram;

  void record_skin(std::size_t distance) {
    // A single cap keeps the histogram bounded on pathological runs.
    constexpr std::size_t max_tracked = 1 << 20;
    if (distance > max_tracked) distance = max_tracked;
    if (skin_histogram.size() <= distance) skin_histogram.resize(distance + 1, 0);
    ++skin_histogram[distance];
  }

  std::uint64_t skin_at(std::size_t distance) const {
    return distance < skin_histogram.size() ? skin_histogram[distance] : 0;
  }

  // LBD distribution: glue_histogram[g] counts learned clauses whose glue
  // (distinct decision levels at learn time) was g. Exported as telemetry;
  // the same glue decides what the memory-pressure emergency reduction
  // keeps.
  std::vector<std::uint64_t> glue_histogram;

  void record_glue(std::size_t glue) {
    constexpr std::size_t max_tracked = 256;
    if (glue > max_tracked) glue = max_tracked;
    if (glue_histogram.size() <= glue) glue_histogram.resize(glue + 1, 0);
    ++glue_histogram[glue];
  }

  // (generated conflict clauses + initial clauses) / initial clauses —
  // the "Database size / Initial CNF size" column of Table 9.
  double db_generated_ratio() const {
    if (initial_clauses == 0) return 0.0;
    return static_cast<double>(learned_clauses + initial_clauses) /
           static_cast<double>(initial_clauses);
  }

  // peak live clauses / initial clauses — "Largest CNF size / Initial CNF
  // size" of Table 9.
  double db_peak_ratio() const {
    if (initial_clauses == 0) return 0.0;
    return static_cast<double>(max_live_clauses) /
           static_cast<double>(initial_clauses);
  }

  std::string summary() const;
};

// The BERKMIN_SOLVER_COUNTERS list as data, for code that loops over it.
struct SolverCounter {
  const char* name;
  std::uint64_t SolverStats::*field;
};
inline constexpr SolverCounter kSolverCounters[] = {
#define BERKMIN_COUNTER_ENTRY(field) {#field, &SolverStats::field},
    BERKMIN_SOLVER_COUNTERS(BERKMIN_COUNTER_ENTRY)
#undef BERKMIN_COUNTER_ENTRY
};
inline constexpr std::size_t kNumSolverCounters = std::size(kSolverCounters);

// One racing worker's outcome of a portfolio's last solve.
struct WorkerReport {
  std::string name;
  SolveStatus status = SolveStatus::unknown;
  double seconds = 0.0;
  SolverStats stats;
  // Worker-death detection: true when the worker's solve threw (a real
  // bad_alloc or an injected fault). The engine is considered poisoned
  // and is permanently removed from the race — its exchange cursor is
  // retired so it cannot stall proof splicing, and later solves skip it.
  // The race's answer comes from the surviving workers and stays correct
  // and certifiable.
  bool died = false;
  std::string error;
};

// Counters of a portfolio's learned-clause exchange.
struct ExchangeStats {
  std::uint64_t published = 0;           // publish() calls
  std::uint64_t accepted = 0;            // clauses stored
  std::uint64_t rejected_length = 0;     // too long
  std::uint64_t rejected_glue = 0;       // glue above the adaptive limit
  std::uint64_t rejected_duplicate = 0;  // already in the pool
  std::uint64_t rejected_full = 0;       // budget exhausted
  std::uint64_t rejected_pressure = 0;   // memory budget denied the entry
  std::uint64_t collected = 0;           // clauses handed to importers
};

// The race behind an engine's last answer (SatEngine::race): one report per
// portfolio worker, the index of the worker whose answer was returned (-1
// when none answered) and the clause exchange's counters. A single solver
// runs no race: no workers.
struct RaceReport {
  std::vector<WorkerReport> workers;
  int winner = -1;
  ExchangeStats exchange;
};

}  // namespace berkmin
