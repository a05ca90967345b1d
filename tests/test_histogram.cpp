#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "common/histogram.hpp"

/// The log-bucketed latency histogram (common/histogram.hpp): exactness
/// below the sub-bucket resolution, the relative-error bound above it,
/// and quantile semantics (monotonic, clamped to the recorded extremes).
/// The open-loop benchmark (E14) reports
/// these quantiles and CI gates its p99, so the bounds are pinned here,
/// not just eyeballed.

namespace fastbft {
namespace {

TEST(HistogramTest, EmptyHistogramReportsZeros) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.quantile(0.5), 0u);
  EXPECT_EQ(h.quantile(1.0), 0u);
}

TEST(HistogramTest, SmallValuesAreExact) {
  // Below 2^kSubBucketBits every value has its own bucket: quantiles of
  // 1..100 are the exact order statistics.
  Histogram h;
  for (std::uint64_t v = 1; v <= 100; ++v) h.record(v);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 100u);
  // Values above kSubBuckets (32) land in approximate buckets but stay
  // within the relative-error bound; below it they are exact.
  EXPECT_EQ(h.quantile(0.01), 1u);
  EXPECT_EQ(h.quantile(0.25), 25u);
  EXPECT_EQ(h.quantile(0.5), 50u);
  EXPECT_NEAR(static_cast<double>(h.quantile(0.99)), 99.0,
              99.0 * Histogram::relative_error());
  EXPECT_EQ(h.quantile(1.0), 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
}

TEST(HistogramTest, SingleValueDominatesEveryQuantile) {
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.record(123'456'789);
  EXPECT_EQ(h.count(), 1000u);
  // One distinct value: clamping to [min, max] makes every quantile exact
  // no matter which bucket it hashed into.
  for (double q : {0.0, 0.5, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(h.quantile(q), 123'456'789u) << "q = " << q;
  }
  EXPECT_DOUBLE_EQ(h.mean(), 123'456'789.0);
}

TEST(HistogramTest, QuantilesWithinRelativeErrorBound) {
  // A geometric spread of values across many octaves: every reported
  // quantile must be within relative_error() of the true order statistic.
  std::vector<std::uint64_t> values;
  for (std::uint64_t v = 1; v < (1ull << 40); v = v * 3 + 1) {
    values.push_back(v);
  }
  Histogram h;
  for (auto v : values) h.record(v);
  ASSERT_EQ(h.count(), values.size());  // already sorted ascending
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    std::size_t rank = static_cast<std::size_t>(
        std::max<double>(1.0, std::ceil(q * values.size())));
    double exact = static_cast<double>(values[rank - 1]);
    double reported = static_cast<double>(h.quantile(q));
    EXPECT_NEAR(reported, exact, exact * Histogram::relative_error())
        << "q = " << q;
  }
}

TEST(HistogramTest, QuantileIsMonotonicInQ) {
  std::mt19937_64 rng(7);
  Histogram h;
  for (int i = 0; i < 10'000; ++i) {
    // Skewed: mostly small with a heavy tail, like real latencies.
    std::uint64_t v = 1 + (rng() % 1000);
    if (rng() % 100 == 0) v *= 1000;
    h.record(v);
  }
  std::uint64_t prev = 0;
  for (double q = 0.0; q <= 1.0; q += 0.01) {
    std::uint64_t now = h.quantile(q);
    EXPECT_GE(now, prev) << "q = " << q;
    prev = now;
  }
  EXPECT_EQ(h.quantile(1.0), h.max());
}

TEST(HistogramTest, ZeroAndHugeValues) {
  Histogram h;
  h.record(0);
  h.record(std::uint64_t{1} << 62);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), std::uint64_t{1} << 62);
  EXPECT_EQ(h.quantile(0.5), 0u);
  double top = static_cast<double>(h.quantile(1.0));
  double exact = static_cast<double>(std::uint64_t{1} << 62);
  EXPECT_NEAR(top, exact, exact * Histogram::relative_error());
}

}  // namespace
}  // namespace fastbft
