// Log-bucketed concurrent histograms for latency/size distributions.
//
// Histogram is a fixed-size array of atomic buckets arranged log-linearly:
// values 0..7 get exact buckets, larger values share 8 sub-buckets per
// power of two, so any recorded value lands in a bucket whose width is at
// most 1/8th of its magnitude (≤ 12.5% relative quantile error). record()
// is lock-free (a handful of relaxed atomic increments), so per-thread or
// shared histograms can be written from solver hot paths and snapshot
// concurrently. Quantiles, mean and merging happen on the plain-struct
// HistogramSnapshot, never on the live atomics.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

namespace berkmin::telemetry {

// Plain copied-out state of a Histogram: safe to merge, query and ship
// across threads. Obtained via Histogram::snapshot().
struct HistogramSnapshot {
  std::vector<std::uint64_t> buckets;  // Histogram::kNumBuckets entries
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;  // valid only when count > 0
  std::uint64_t max = 0;

  double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  // Value at quantile q in [0, 1]: exact for values < 8, otherwise the
  // midpoint of the containing log bucket, clamped into [min, max].
  // Returns 0 on an empty snapshot.
  std::uint64_t quantile(double q) const;
};

class Histogram {
 public:
  static constexpr int kSubBits = 3;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;  // 8
  // Exponents 0..60 each contribute kSub sub-buckets after the 8 exact
  // small-value buckets: (64 - kSubBits - 1 + 1 + 1) * 8 = 496 buckets
  // cover the whole uint64 range.
  static constexpr std::size_t kNumBuckets = (64 - kSubBits + 1) * kSub;

  // Which bucket a value lands in. v < 8 is exact; otherwise the top
  // kSubBits bits below the leading one select the sub-bucket.
  static std::size_t bucket_index(std::uint64_t v);
  // Smallest value mapping to bucket `index` (inverse of bucket_index).
  static std::uint64_t bucket_lower_edge(std::size_t index);
  // Width of bucket `index` (1 for the exact small-value buckets).
  static std::uint64_t bucket_width(std::size_t index);

  void record(std::uint64_t value);
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }

  // Copies the live atomics into a plain snapshot. Safe concurrently with
  // record(); the result is a consistent-enough point-in-time view (counts
  // are monotone, a racing record may or may not be included).
  HistogramSnapshot snapshot() const;

 private:
  std::array<std::atomic<std::uint64_t>, kNumBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{~std::uint64_t{0}};
  std::atomic<std::uint64_t> max_{0};
};

}  // namespace berkmin::telemetry
