#include <gtest/gtest.h>

#include "obs/metrics.h"

/// \file histogram_test.cc
/// obs::Histogram, the engine's task-latency instrument: the log-linear
/// bucket layout, the negative clamp, the tracked maximum and the one
/// percentile rule that QueryHandle::latency() callers and the metrics
/// summary share.

namespace saber::obs {
namespace {

double Mean(const Histogram& h) {
  return static_cast<double>(h.sum()) / static_cast<double>(h.count());
}

TEST(Histogram, BasicStats) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.Record(i * 1000);
  EXPECT_EQ(h.count(), 100);
  EXPECT_EQ(h.max(), 100000);
  EXPECT_NEAR(Mean(h), 50500.0, 1.0);
}

TEST(Histogram, PercentilesAreMonotoneAndBracketed) {
  Histogram h;
  for (int i = 0; i < 10000; ++i) h.Record(i);
  const int64_t p50 = h.Percentile(50);
  const int64_t p90 = h.Percentile(90);
  const int64_t p99 = h.Percentile(99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  // Log-linear buckets: relative error bounded by one sub-bucket (1/16).
  EXPECT_NEAR(static_cast<double>(p50), 5000.0, 5000.0 / 8);
  EXPECT_NEAR(static_cast<double>(p99), 9900.0, 9900.0 / 8);
}

TEST(Histogram, NegativeClampsToZero) {
  Histogram h;
  h.Record(-5);
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.max(), 0);
}

TEST(Histogram, LargeValues) {
  Histogram h;
  const int64_t hour_nanos = 3600LL * 1000000000LL;
  h.Record(hour_nanos);
  EXPECT_EQ(h.count(), 1);
  EXPECT_GE(h.Percentile(100), hour_nanos / 2);
}

TEST(Histogram, PercentileNeverExceedsObservedMax) {
  // Regression: a log-linear bucket's upper bound can exceed every value
  // recorded into it, so an unclamped percentile reported p100 > max.
  Histogram h;
  h.Record(1'000'003);  // strictly inside a bucket
  EXPECT_EQ(h.Percentile(100), h.max());
  EXPECT_LE(h.Percentile(99), h.max());
  EXPECT_LE(h.Percentile(50), h.max());

  // A spread of awkward values: every percentile stays within [0, max].
  Histogram g;
  for (int64_t v : {17LL, 1234567LL, 89LL, 4096LL, 999999937LL}) {
    g.Record(v);
  }
  for (double p : {0.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
    EXPECT_GE(g.Percentile(p), 0);
    EXPECT_LE(g.Percentile(p), g.max()) << "p=" << p;
  }
}

TEST(Histogram, PercentilesKeepTheirPinnedValues) {
  // The expected numbers are what the engine reported for this sample set
  // before its latency moved onto this instrument; every percentile the
  // CLI, the benches and the examples print must keep its value.
  Histogram h;
  for (int64_t i = 0; i < 1000; ++i) h.Record(i * i * 37 + 11);
  h.Record(-5);
  h.Record(3'600'000'000'000);
  EXPECT_EQ(h.count(), 1002);
  EXPECT_EQ(h.max(), 3'600'000'000'000);
  EXPECT_EQ(h.Percentile(0), 0);
  EXPECT_EQ(h.Percentile(50), 9'437'183);
  EXPECT_EQ(h.Percentile(90), 30'408'703);
  EXPECT_EQ(h.Percentile(99), 37'748'735);
  EXPECT_EQ(h.Percentile(99.9), 37'748'735);
  EXPECT_EQ(h.Percentile(100), 3'600'000'000'000);

  Histogram edges;
  for (int64_t v : {65535, 65536, 131071, 131072}) edges.Record(v);
  EXPECT_EQ(edges.Percentile(25), 65535);
  EXPECT_EQ(edges.Percentile(50), 69631);
  EXPECT_EQ(edges.Percentile(75), 131071);
  EXPECT_EQ(edges.Percentile(100), 131072);
}

}  // namespace
}  // namespace saber::obs
