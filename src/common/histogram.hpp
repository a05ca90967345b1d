#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

/// \file histogram.hpp
/// Log-bucketed value histogram for latency accounting (HdrHistogram
/// style, pared down). Values are non-negative integers in any unit the
/// caller picks — the open-loop benchmark (E14) records per-op
/// completion latencies in microseconds.
///
/// Bucketing: values below 2^kSubBucketBits are exact; above that, each
/// power-of-two octave is split into 2^kSubBucketBits linear sub-buckets,
/// so any recorded value is off by at most 1/2^kSubBucketBits of itself
/// (~3% at the default 5 bits). That makes record() O(1) with a fixed
/// ~2K-entry footprint across the full 64-bit range, while quantiles stay
/// accurate enough to publish p999s.
///
/// Quantiles are reported as the midpoint of the bucket holding the
/// requested rank, clamped into [min(), max()] so quantile(0) and
/// quantile(1) return the exact extremes.
///
/// Not thread-safe: one writer (merge from other threads' instances
/// instead of sharing one).

namespace fastbft {

class Histogram {
 public:
  /// Linear sub-buckets per octave (2^5 = 32 -> <= ~3.1% relative error).
  static constexpr unsigned kSubBucketBits = 5;
  static constexpr std::uint64_t kSubBuckets = 1ull << kSubBucketBits;

  /// Worst-case relative error of a reported quantile.
  static constexpr double relative_error() {
    return 1.0 / static_cast<double>(kSubBuckets);
  }

  void record(std::uint64_t value) { record_n(value, 1); }
  void record_n(std::uint64_t value, std::uint64_t count);

  /// Adds every recorded value of `other` into this histogram.
  void merge(const Histogram& other);

  std::uint64_t count() const { return count_; }

  /// Exact extremes of everything recorded (0 when empty).
  std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
  std::uint64_t max() const { return max_; }

  /// Exact arithmetic mean of recorded values (0 when empty).
  double mean() const;

  /// Value at quantile q in [0, 1]: the smallest bucket such that at
  /// least ceil(q * count) recorded values are <= its upper bound,
  /// reported as the bucket midpoint clamped into [min(), max()].
  /// Returns 0 when empty.
  std::uint64_t quantile(double q) const;

  void reset();

 private:
  /// Bucket index of `value`; contiguous, exact below kSubBuckets.
  static std::size_t index_of(std::uint64_t value);

  /// Inclusive value range covered by bucket `index`.
  static std::uint64_t lower_of(std::size_t index);
  static std::uint64_t width_of(std::size_t index);

  std::vector<std::uint64_t> buckets_;  // grown lazily to the max index
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

}  // namespace fastbft
