#include "runtime/histogram.h"

#include <gtest/gtest.h>

namespace saber {
namespace {

TEST(LatencyHistogram, BasicStats) {
  LatencyHistogram h;
  for (int i = 1; i <= 100; ++i) h.RecordNanos(i * 1000);
  EXPECT_EQ(h.count(), 100);
  EXPECT_EQ(h.max_nanos(), 100000);
  EXPECT_NEAR(h.mean_nanos(), 50500.0, 1.0);
}

TEST(LatencyHistogram, PercentilesAreMonotoneAndBracketed) {
  LatencyHistogram h;
  for (int i = 0; i < 10000; ++i) h.RecordNanos(i);
  const int64_t p50 = h.PercentileNanos(50);
  const int64_t p90 = h.PercentileNanos(90);
  const int64_t p99 = h.PercentileNanos(99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  // Log-linear buckets: relative error bounded by one sub-bucket (1/16).
  EXPECT_NEAR(static_cast<double>(p50), 5000.0, 5000.0 / 8);
  EXPECT_NEAR(static_cast<double>(p99), 9900.0, 9900.0 / 8);
}

TEST(LatencyHistogram, NegativeClampsToZero) {
  LatencyHistogram h;
  h.RecordNanos(-5);
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.max_nanos(), 0);
}

TEST(LatencyHistogram, LargeValues) {
  LatencyHistogram h;
  const int64_t hour_nanos = 3600LL * 1000000000LL;
  h.RecordNanos(hour_nanos);
  EXPECT_EQ(h.count(), 1);
  EXPECT_GE(h.PercentileNanos(100), hour_nanos / 2);
}

TEST(LatencyHistogram, PercentileNeverExceedsObservedMax) {
  // Regression: a log-linear bucket's upper bound can exceed every value
  // recorded into it, so an unclamped percentile reported p100 > max.
  LatencyHistogram h;
  h.RecordNanos(1'000'003);  // strictly inside a bucket
  EXPECT_EQ(h.PercentileNanos(100), h.max_nanos());
  EXPECT_LE(h.PercentileNanos(99), h.max_nanos());
  EXPECT_LE(h.PercentileNanos(50), h.max_nanos());

  // A spread of awkward values: every percentile stays within [0, max].
  LatencyHistogram g;
  for (int64_t v : {17LL, 1234567LL, 89LL, 4096LL, 999999937LL}) {
    g.RecordNanos(v);
  }
  for (double p : {0.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
    EXPECT_GE(g.PercentileNanos(p), 0);
    EXPECT_LE(g.PercentileNanos(p), g.max_nanos()) << "p=" << p;
  }
}

}  // namespace
}  // namespace saber
