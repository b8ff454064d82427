// Flat watcher storage for the two-watched-literal scheme.
//
// Instead of one heap-allocated std::vector per literal (2n scattered
// allocations whose headers and payloads share no cache lines), every
// watch list lives in a single contiguous pool of entries and each literal
// owns a (offset, len, cap) span of it. Walking a literal's watchers is
// then a linear scan of one contiguous region, and BCP over consecutive
// literal codes (implication chains) walks the span table and the pool
// almost sequentially — exactly what the hardware prefetcher wants. The
// same structure backs both watch kinds: FlatWatchLists<Watcher> for
// clauses of three or more literals and FlatWatchLists<BinWatch> for the
// specialized binary lists.
//
// Growth: when a span is full its capacity doubles. A span that already
// ends the pool grows in place (nothing moves, nothing is wasted); any
// other is relocated to fresh slots at the end of the pool, and the
// vacated slots become garbage tracked by wasted(). Pushes to the newest
// literals, as a stream of clause adds makes, often grow in place.
// Geometric growth bounds total garbage by
// the live size. compact() (called at restart boundaries), rebuild()
// (called by garbage collection, which knows the exact watcher counts up
// front) and reserve() (called by Solver::load, which counts a formula's
// watchers before attaching it) squeeze it out entirely. Because growth
// never touches any other span's offset, BCP can iterate the current
// literal's span by absolute pool index while pushing watchers for other
// literals — only raw pool indices stay valid across a push (the
// underlying vector may reallocate), which is exactly how
// Solver::propagate_internal accesses the long-clause lists. A scan that
// performs no pushes at all (the binary loop) may use data() pointers
// directly.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "core/solver_types.h"

namespace berkmin {

template <typename Entry>
class FlatWatchLists {
 public:
  struct Span {
    std::uint32_t offset = 0;
    std::uint32_t len = 0;
    std::uint32_t cap = 0;
  };

  // Grows the per-literal span table to `num_lit_codes` entries (new spans
  // are empty). Never shrinks.
  void resize_literals(std::size_t num_lit_codes) {
    assert(num_lit_codes >= spans_.size());
    spans_.resize(num_lit_codes);
  }
  std::size_t num_literals() const { return spans_.size(); }

  std::uint32_t size(std::size_t code) const { return spans_[code].len; }
  std::uint32_t offset(std::size_t code) const { return spans_[code].offset; }
  const Span& span(std::size_t code) const { return spans_[code]; }

  // Contiguous view of one literal's list. Invalidated by any push —
  // only for scans that do not add entries.
  const Entry* data(std::size_t code) const {
    return pool_.data() + spans_[code].offset;
  }
  std::span<const Entry> list(std::size_t code) const {
    return {data(code), spans_[code].len};
  }

  // Raw pool access by absolute index: the only accessor that is safe to
  // mix with push() on *other* literals during a scan (see header comment).
  Entry& at(std::uint32_t pool_index) { return pool_[pool_index]; }
  const Entry& at(std::uint32_t pool_index) const { return pool_[pool_index]; }

  void push(std::size_t code, Entry e) {
    Span& s = spans_[code];
    if (s.len == s.cap) grow(s);
    pool_[s.offset + s.len++] = e;
  }

  // Empties every list, keeping the layout: refilling a list with at most
  // as many entries as it held relocates nothing.
  void clear() {
    for (Span& s : spans_) s.len = 0;
  }

  // Takes `spent`'s buffers, emptied: the lists are as new (no literals,
  // an empty pool), with the capacity `spent` had grown to.
  void reuse(FlatWatchLists& spent) {
    reuse_buffer(pool_, spent.pool_);
    reuse_buffer(spans_, spent.spans_);
    wasted_ = 0;
  }

  // Drops the tail of a span (BCP keeps a compacted prefix in place).
  void truncate(std::size_t code, std::uint32_t new_len) {
    assert(new_len <= spans_[code].len);
    spans_[code].len = new_len;
  }

  std::size_t live() const {
    std::size_t n = 0;
    for (const Span& s : spans_) n += s.len;
    return n;
  }
  std::size_t wasted() const { return wasted_; }
  std::size_t pool_slots() const { return pool_.size(); }

  // Relocates every span into a fresh, gap-free pool (offsets change; no
  // indices or pointers may be held across this call). Capacity snaps to
  // the live length, so the next push per literal relocates once —
  // acceptable at the restart boundaries this runs on.
  void compact() {
    compact([](const Entry&) { return true; });
  }
  // As compact(), keeping only the entries `keep` accepts, in order.
  template <typename Keep>
  void compact(Keep keep) {
    std::vector<Entry> fresh;
    fresh.reserve(live());
    for (Span& s : spans_) {
      const std::uint32_t new_off = static_cast<std::uint32_t>(fresh.size());
      for (std::uint32_t i = 0; i < s.len; ++i) {
        if (keep(pool_[s.offset + i])) fresh.push_back(pool_[s.offset + i]);
      }
      s.offset = new_off;
      s.len = static_cast<std::uint32_t>(fresh.size()) - new_off;
      s.cap = s.len;
    }
    pool_ = std::move(fresh);
    wasted_ = 0;
  }

  // Discards every entry and lays the pool out for exactly `counts[code]`
  // entries per literal (garbage collection counts them before
  // re-attaching). Subsequent pushes fill the spans with zero relocations
  // and zero waste.
  void rebuild(const std::vector<std::uint32_t>& counts) {
    assert(counts.size() == spans_.size());
    std::uint32_t offset = 0;
    for (std::size_t code = 0; code < spans_.size(); ++code) {
      spans_[code] = {offset, 0, counts[code]};
      offset += counts[code];
    }
    pool_.assign(offset, Entry{});  // in the buffer the pool already has
    wasted_ = 0;
  }

  // The capacity push() growth gives a list that reaches `len` entries.
  static std::uint32_t grown_capacity(std::uint32_t len) {
    return len == 0 ? 0 : std::max<std::uint32_t>(4, std::bit_ceil(len));
  }

  // Lays the pool out afresh with room for exactly `extra[code]` more
  // entries per literal, keeping every entry in order (Solver::load counts
  // a formula's watchers before attaching it). Pushing that many relocates
  // nothing and wastes nothing.
  void reserve(const std::vector<std::uint32_t>& extra) {
    assert(extra.size() == spans_.size());
    std::uint32_t total = 0;
    for (std::size_t code = 0; code < spans_.size(); ++code) {
      total += spans_[code].len + extra[code];
    }
    std::vector<Entry> fresh(total);
    std::uint32_t offset = 0;
    for (std::size_t code = 0; code < spans_.size(); ++code) {
      Span& s = spans_[code];
      std::copy_n(pool_.begin() + s.offset, s.len, fresh.begin() + offset);
      s.offset = offset;
      s.cap = s.len + extra[code];
      offset += s.cap;
    }
    pool_ = std::move(fresh);
    wasted_ = 0;
  }

 private:
  void grow(Span& s) {
    const std::uint32_t new_cap = s.cap == 0 ? 4 : 2 * s.cap;
    const auto end = static_cast<std::uint32_t>(pool_.size());
    const bool at_tail = s.offset + s.cap == end;
    pool_.resize(end + new_cap - (at_tail ? s.cap : 0));
    if (!at_tail) {
      for (std::uint32_t i = 0; i < s.len; ++i) {
        pool_[end + i] = pool_[s.offset + i];
      }
      wasted_ += s.cap;
      s.offset = end;
    }
    s.cap = new_cap;
  }

  std::vector<Entry> pool_;
  std::vector<Span> spans_;
  std::size_t wasted_ = 0;
};

using WatchPool = FlatWatchLists<Watcher>;
using BinWatchPool = FlatWatchLists<BinWatch>;

}  // namespace berkmin
