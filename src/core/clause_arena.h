// Flat clause storage.
//
// All clauses live in one growable array of 32-bit words; a ClauseRef is an
// offset into it. Layout per clause:
//
//   word 0   size << 2 | learned bit | spare bit
//   word 1   activity counter (the number of conflicts the clause has been
//            responsible for — Section 8 of the paper)
//   word 2   glue (LBD): distinct decision levels in the clause at learn
//            time; 0 for original clauses and imports with unknown glue
//   word 3.. literal codes
//
// Handles returned by deref() point into the array and are invalidated by
// alloc() (growth may move the storage) and by garbage collection.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "cnf/literal.h"
#include "core/solver_types.h"

namespace berkmin {

class Clause {
 public:
  explicit Clause(std::uint32_t* base) : base_(base) {}

  std::uint32_t size() const { return base_[0] >> 2; }
  bool learned() const { return (base_[0] & 1) != 0; }

  std::uint32_t activity() const { return base_[1]; }
  void set_activity(std::uint32_t value) { base_[1] = value; }
  void bump_activity() { ++base_[1]; }

  std::uint32_t glue() const { return base_[2]; }

  Lit operator[](std::uint32_t i) const {
    return Lit::from_code(static_cast<std::int32_t>(base_[3 + i]));
  }
  void set_lit(std::uint32_t i, Lit l) {
    base_[3 + i] = static_cast<std::uint32_t>(l.code());
  }

  // Copies the literals out (for callbacks and proof logging; safe across
  // later arena growth).
  void copy_to(std::vector<Lit>& out) const {
    out.clear();
    out.reserve(size());
    for (std::uint32_t i = 0; i < size(); ++i) out.push_back((*this)[i]);
  }

 private:
  std::uint32_t* base_;
};

class ClauseArena {
 public:
  static constexpr std::uint32_t header_words = 3;

  ClauseRef alloc(std::span<const Lit> lits, bool learned,
                  std::uint32_t glue = 0) {
    const ClauseRef ref = static_cast<ClauseRef>(data_.size());
    data_.push_back((static_cast<std::uint32_t>(lits.size()) << 2) |
                    (learned ? 1u : 0u));
    data_.push_back(0);  // activity
    data_.push_back(glue);
    for (const Lit l : lits) data_.push_back(static_cast<std::uint32_t>(l.code()));
    return ref;
  }

  Clause deref(ClauseRef ref) {
    assert(ref < data_.size());
    return Clause(data_.data() + ref);
  }

  const Clause deref(ClauseRef ref) const {
    assert(ref < data_.size());
    // Clause only mutates through non-const methods; fine for read access.
    return Clause(const_cast<std::uint32_t*>(data_.data() + ref));
  }

  std::size_t size_words() const { return data_.size(); }

  // Allocated (not just used) storage, in words — what a MemoryBudget
  // should be charged for this arena.
  std::size_t capacity_words() const { return data_.capacity(); }

  void clear() { data_.clear(); }

  // Takes `spent`'s buffer, emptied: the arena is as new, with the
  // capacity `spent` had grown to.
  void reuse(ClauseArena& spent) { reuse_buffer(data_, spent.data_); }

  void reserve_words(std::size_t words) { data_.reserve(words); }
  void swap(ClauseArena& other) noexcept { data_.swap(other.data_); }

 private:
  std::vector<std::uint32_t> data_;
};

}  // namespace berkmin
