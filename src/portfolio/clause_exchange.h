// Bounded learned-clause exchange between portfolio workers.
//
// Workers publish learned clauses as they are deduced (through Solver's
// learn callback) and collect the clauses their siblings published at
// every restart boundary. The pool is deliberately modest:
//
//  * admission is glue-first: a clause with known glue (literal block
//    distance) is accepted when its glue is at most the current adaptive
//    glue limit, regardless of length up to a generous safety cap —
//    low-glue clauses propagate together with few decision levels and are
//    the empirically valuable ones to share even when they are long.
//    Units and binaries are always accepted. The limit adapts by AIMD:
//    after every adapt_window offers, a low acceptance rate raises the
//    limit (the workers' lemmas are mostly glueier than the limit, so
//    share more) and a high rate lowers it (the pool is flooding
//    importers, keep only the best). Clauses offered without a glue
//    (glue 0) fall back to the legacy length-only filter;
//  * duplicates (up to literal order) are rejected, so one popular lemma
//    costs the pool one slot no matter how many workers deduce it;
//  * a hard max_clauses budget caps the pool's memory; once full, new
//    clauses are dropped rather than evicting old ones (every stored
//    clause may still be un-collected by some worker).
//
// All operations take one std::mutex; contention is low because callers
// filter by the safety cap before locking and collect in restart-sized
// batches.
#pragma once

#include <cstdint>
#include <mutex>
#include <set>
#include <span>
#include <vector>

#include "cnf/literal.h"
#include "core/solver_types.h"

namespace berkmin::util {
class MemoryBudget;
}

namespace berkmin::portfolio {

struct ExchangeLimits {
  // Length cap for clauses published without a glue value (glue 0).
  std::uint32_t max_clause_length = 8;
  // Safety length cap for glue-qualified clauses: even a glue-2 clause
  // longer than this is rejected (importers pay per literal).
  std::uint32_t max_glue_clause_length = 30;
  // AIMD bounds and start point for the adaptive glue limit.
  std::uint32_t glue_limit_min = 2;
  std::uint32_t glue_limit_max = 8;
  std::uint32_t glue_limit_initial = 4;
  // Glue-path offers per adaptation step (0 disables adaptation).
  std::uint32_t adapt_window = 64;
  std::uint64_t max_clauses = 1 << 16;
};

class ClauseExchange {
 public:
  explicit ClauseExchange(int num_workers, ExchangeLimits limits = {});
  ~ClauseExchange();

  // Offers a clause deduced by `worker` with its glue (0 = unknown).
  // Returns true iff it was stored (admitted by the filter, novel, and
  // the pool had budget left); on success *entry_index (when non-null)
  // receives the stored entry's position, which collect cursors are
  // measured against.
  bool publish(int worker, std::span<const Lit> clause, std::uint32_t glue = 0,
               std::size_t* entry_index = nullptr);

  // Appends to `out` every clause published by OTHER workers since this
  // worker's previous collect() call; `glues` (when non-null) receives
  // the matching glue values and `cursor_after` (when non-null) the
  // worker's new cursor (entries below it are all seen). Returns the
  // number appended.
  std::size_t collect(int worker, std::vector<std::vector<Lit>>* out,
                      std::vector<std::uint32_t>* glues = nullptr,
                      std::size_t* cursor_after = nullptr);

  // Removes a dead worker from the pool: later publish/collect calls from
  // that worker index are rejected / return nothing.
  void retire_worker(int worker);

  // Optional memory governor: entry storage is charged against the budget
  // and a publish that cannot reserve its bytes is rejected (counted in
  // stats().rejected_pressure). The budget must outlive the exchange.
  void set_memory_budget(util::MemoryBudget* budget);

  ExchangeStats stats() const;
  std::size_t size() const;
  const ExchangeLimits& limits() const { return limits_; }

 private:
  struct Entry {
    int source;
    std::uint32_t glue;
    std::vector<Lit> lits;
  };

  ExchangeLimits limits_;
  mutable std::mutex mutex_;
  std::vector<Entry> entries_;
  // Canonical sorted-code keys of every clause ever accepted.
  std::set<std::vector<std::int32_t>> seen_;
  std::vector<std::size_t> cursors_;  // per worker: next entry to collect
  std::vector<char> retired_;         // per worker: dead, excluded from cursors
  util::MemoryBudget* budget_ = nullptr;
  std::uint64_t charged_bytes_ = 0;
  ExchangeStats stats_;
  // Adaptive glue admission (see header comment). Guarded by mutex_.
  std::uint32_t glue_limit_;
  std::uint32_t window_offers_ = 0;
  std::uint32_t window_accepts_ = 0;
};

}  // namespace berkmin::portfolio
