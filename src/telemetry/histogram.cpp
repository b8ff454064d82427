#include "telemetry/histogram.h"

#include <algorithm>
#include <cmath>

namespace berkmin::telemetry {

std::size_t Histogram::bucket_index(std::uint64_t v) {
  if (v < kSub) return static_cast<std::size_t>(v);
  int msb = 63;
  while ((v >> msb) == 0) --msb;
  const int exp = msb - kSubBits;
  const std::uint64_t sub = (v >> exp) & (kSub - 1);
  return static_cast<std::size_t>((exp + 1) * static_cast<int>(kSub) + sub);
}

std::uint64_t Histogram::bucket_lower_edge(std::size_t index) {
  if (index < kSub) return index;
  const int exp = static_cast<int>(index / kSub) - 1;
  const std::uint64_t sub = index % kSub;
  return (kSub + sub) << exp;
}

std::uint64_t Histogram::bucket_width(std::size_t index) {
  if (index < kSub) return 1;
  const int exp = static_cast<int>(index / kSub) - 1;
  return std::uint64_t{1} << exp;
}

void Histogram::record(std::uint64_t value) {
  buckets_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  std::uint64_t seen = min_.load(std::memory_order_relaxed);
  while (value < seen &&
         !min_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  snap.buckets.resize(kNumBuckets);
  for (std::size_t i = 0; i < kNumBuckets; ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  const std::uint64_t lo = min_.load(std::memory_order_relaxed);
  snap.min = snap.count == 0 ? 0 : lo;
  snap.max = max_.load(std::memory_order_relaxed);
  return snap;
}

std::uint64_t HistogramSnapshot::quantile(double q) const {
  if (count == 0 || buckets.empty()) return 0;
  q = std::min(1.0, std::max(0.0, q));
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count))));
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    cum += buckets[i];
    if (cum >= rank) {
      const std::uint64_t mid =
          Histogram::bucket_lower_edge(i) + Histogram::bucket_width(i) / 2;
      return std::max(min, std::min(max, mid));
    }
  }
  return max;
}

}  // namespace berkmin::telemetry
