#include "portfolio/clause_exchange.h"

#include <algorithm>

#include "util/fault.h"
#include "util/memory_budget.h"

namespace berkmin::portfolio {

ClauseExchange::ClauseExchange(int num_workers, ExchangeLimits limits)
    : limits_(limits),
      cursors_(static_cast<std::size_t>(num_workers), 0),
      retired_(static_cast<std::size_t>(num_workers), 0),
      glue_limit_(std::clamp(limits.glue_limit_initial, limits.glue_limit_min,
                             limits.glue_limit_max)) {}

ClauseExchange::~ClauseExchange() {
  if (budget_ != nullptr && charged_bytes_ != 0) {
    budget_->release(charged_bytes_);
  }
}

void ClauseExchange::set_memory_budget(util::MemoryBudget* budget) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (budget_ != nullptr && charged_bytes_ != 0) {
    budget_->release(charged_bytes_);
    charged_bytes_ = 0;
  }
  budget_ = budget;
}

void ClauseExchange::retire_worker(int worker) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto w = static_cast<std::size_t>(worker);
  if (w < retired_.size()) retired_[w] = 1;
}

bool ClauseExchange::publish(int worker, std::span<const Lit> clause,
                             std::uint32_t glue, std::size_t* entry_index) {
  if (clause.empty()) return false;

  std::vector<std::int32_t> key;
  key.reserve(clause.size());
  for (const Lit l : clause) key.push_back(l.code());
  std::sort(key.begin(), key.end());

  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.published;

  // Admission filter. Units and binaries always pass; glue-qualified
  // clauses pass on glue (up to the safety length cap); glue-less offers
  // keep the legacy length-only rule.
  if (clause.size() > 2) {
    if (glue == 0) {
      if (clause.size() > limits_.max_clause_length) {
        ++stats_.rejected_length;
        return false;
      }
    } else {
      if (clause.size() > limits_.max_glue_clause_length) {
        ++stats_.rejected_length;
        return false;
      }
      ++window_offers_;
      const bool admit = glue <= glue_limit_;
      if (admit) ++window_accepts_;
      if (limits_.adapt_window != 0 && window_offers_ >= limits_.adapt_window) {
        // AIMD on the acceptance rate: starved (<25%) -> widen, flooded
        // (>75%) -> tighten. One step per window keeps the limit stable.
        if (4 * window_accepts_ < window_offers_ &&
            glue_limit_ < limits_.glue_limit_max) {
          ++glue_limit_;
        } else if (4 * window_accepts_ > 3 * window_offers_ &&
                   glue_limit_ > limits_.glue_limit_min) {
          --glue_limit_;
        }
        window_offers_ = 0;
        window_accepts_ = 0;
      }
      if (!admit) {
        ++stats_.rejected_glue;
        return false;
      }
    }
  }
  if (retired_[static_cast<std::size_t>(worker)]) return false;
  if (entries_.size() >= limits_.max_clauses) {
    ++stats_.rejected_full;
    return false;
  }
  // Memory governor + injected allocation faults: an entry costs roughly
  // its key + literal storage; a publish the budget cannot absorb is
  // dropped (sharing is an optimization, never required for soundness).
  const std::uint64_t entry_bytes =
      (2 * clause.size()) * sizeof(std::int32_t) + sizeof(Entry);
  if (BERKMIN_FAULT_POINT(util::FaultSite::alloc_exchange) ||
      (budget_ != nullptr && !budget_->try_reserve(entry_bytes))) {
    ++stats_.rejected_pressure;
    if (budget_ != nullptr) budget_->note_degrade();
    return false;
  }
  if (budget_ != nullptr) charged_bytes_ += entry_bytes;
  if (!seen_.insert(std::move(key)).second) {
    ++stats_.rejected_duplicate;
    if (budget_ != nullptr) {
      budget_->release(entry_bytes);
      charged_bytes_ -= entry_bytes;
    }
    return false;
  }
  if (entry_index != nullptr) *entry_index = entries_.size();
  entries_.push_back(Entry{worker, glue, {clause.begin(), clause.end()}});
  ++stats_.accepted;
  return true;
}

std::size_t ClauseExchange::collect(int worker,
                                    std::vector<std::vector<Lit>>* out,
                                    std::vector<std::uint32_t>* glues,
                                    std::size_t* cursor_after) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (retired_[static_cast<std::size_t>(worker)]) {
    if (cursor_after != nullptr)
      *cursor_after = cursors_[static_cast<std::size_t>(worker)];
    return 0;
  }
  std::size_t& cursor = cursors_[static_cast<std::size_t>(worker)];
  std::size_t appended = 0;
  for (; cursor < entries_.size(); ++cursor) {
    const Entry& entry = entries_[cursor];
    if (entry.source == worker) continue;  // never hand a worker its own
    out->push_back(entry.lits);
    if (glues != nullptr) glues->push_back(entry.glue);
    ++appended;
  }
  stats_.collected += appended;
  if (cursor_after != nullptr) *cursor_after = cursor;
  return appended;
}

ExchangeStats ClauseExchange::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t ClauseExchange::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

}  // namespace berkmin::portfolio
