#include "common/histogram.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace fastbft {

std::size_t Histogram::index_of(std::uint64_t value) {
  if (value < kSubBuckets) return static_cast<std::size_t>(value);
  // Octave = position of the highest set bit beyond the sub-bucket
  // resolution; the top kSubBucketBits+1 bits select the sub-bucket.
  unsigned exp = std::bit_width(value) - kSubBucketBits - 1;
  std::uint64_t sub = value >> exp;  // in [kSubBuckets, 2 * kSubBuckets)
  return static_cast<std::size_t>(exp * kSubBuckets + sub);
}

std::uint64_t Histogram::lower_of(std::size_t index) {
  if (index < 2 * kSubBuckets) return index;
  unsigned exp = static_cast<unsigned>(index / kSubBuckets) - 1;
  std::uint64_t sub = index % kSubBuckets + kSubBuckets;
  return sub << exp;
}

std::uint64_t Histogram::width_of(std::size_t index) {
  if (index < 2 * kSubBuckets) return 1;
  return 1ull << (index / kSubBuckets - 1);
}

void Histogram::record(std::uint64_t value) {
  std::size_t index = index_of(value);
  if (index >= buckets_.size()) buckets_.resize(index + 1, 0);
  ++buckets_[index];
  if (count_ == 0 || value < min_) min_ = value;
  max_ = std::max(max_, value);
  ++count_;
  sum_ += value;
}

double Histogram::mean() const {
  if (count_ == 0) return 0.0;
  return static_cast<double>(sum_) / static_cast<double>(count_);
}

std::uint64_t Histogram::quantile(double q) const {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  std::uint64_t rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  rank = std::clamp<std::uint64_t>(rank, 1, count_);
  if (rank == count_) return max_;  // the top rank is tracked exactly
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      std::uint64_t mid = lower_of(i) + width_of(i) / 2;
      return std::clamp(mid, min_, max_);
    }
  }
  return max_;  // unreachable: counts always sum to count_
}

}  // namespace fastbft
