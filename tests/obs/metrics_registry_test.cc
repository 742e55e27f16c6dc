#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

/// \file metrics_registry_test.cc
/// The unified metrics registry: get-or-create identity and label dedup,
/// exact counting under concurrent increments, histogram bucket boundary
/// semantics and octave exposition, the external-instrument register/unregister/repoint lifecycle,
/// collectors, snapshots under registration churn, and the two formatters
/// (Prometheus text exposition, human summary).

namespace saber::obs {
namespace {

/// The value of series `labels` in family `name`, or -1 if absent.
int64_t CounterIn(const MetricsSnapshot& snap, const std::string& name,
                  const Labels& labels = {}) {
  for (const auto& f : snap.families) {
    if (f.name != name) continue;
    for (const auto& s : f.series) {
      if (s.labels == labels) return s.counter_value;
    }
  }
  return -1;
}

TEST(MetricsRegistry, GetOrCreateReturnsStablePointers) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("saber_test_a_total", {{"q", "0"}});
  Counter* same = reg.GetCounter("saber_test_a_total", {{"q", "0"}});
  Counter* other_labels = reg.GetCounter("saber_test_a_total", {{"q", "1"}});
  Counter* other_name = reg.GetCounter("saber_test_b_total", {{"q", "0"}});
  EXPECT_EQ(a, same) << "same (name, labels) must dedup to one instrument";
  EXPECT_NE(a, other_labels);
  EXPECT_NE(a, other_name);

  a->Increment(5);
  other_labels->Increment(7);
  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(CounterIn(snap, "saber_test_a_total", {{"q", "0"}}), 5);
  EXPECT_EQ(CounterIn(snap, "saber_test_a_total", {{"q", "1"}}), 7);
  EXPECT_EQ(CounterIn(snap, "saber_test_b_total", {{"q", "0"}}), 0);
}

TEST(MetricsRegistry, LabelOrderIsPartOfSeriesIdentity) {
  // Labels are an ordered vector by design (registration order is the
  // exposition order); callers use a consistent order per name.
  MetricsRegistry reg;
  Counter* ab = reg.GetCounter("saber_test_total", {{"a", "1"}, {"b", "2"}});
  Counter* ba = reg.GetCounter("saber_test_total", {{"b", "2"}, {"a", "1"}});
  EXPECT_NE(ab, ba);
}

TEST(MetricsRegistry, ConcurrentIncrementsAreExact) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("saber_test_concurrent_total");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (int i = 0; i < kPerThread; ++i) c->Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c->value(), int64_t{kThreads} * kPerThread)
      << "a relaxed fetch_add must still never lose an increment";
}

TEST(MetricsRegistry, HistogramBucketBoundariesAreInclusiveUpperBounds) {
  // Below 16 every value has its own bucket; above, each octave [2^k,
  // 2^(k+1)) splits into 16 sub-buckets whose upper bounds are inclusive.
  for (uint64_t v = 0; v < 16; ++v) {
    EXPECT_EQ(Histogram::BucketIndex(v), v);
    EXPECT_EQ(Histogram::BucketUpperBound(v), static_cast<int64_t>(v));
  }
  for (int k = 4; k < 47; ++k) {
    const uint64_t edge = uint64_t{1} << k;
    const size_t below = Histogram::BucketIndex(edge - 1);
    EXPECT_EQ(Histogram::BucketIndex(edge), below + 1) << "k=" << k;
    EXPECT_EQ(Histogram::BucketUpperBound(below),
              static_cast<int64_t>(edge - 1))
        << "k=" << k;
  }
  // Past the last octave everything lands in the last bucket.
  EXPECT_EQ(Histogram::BucketIndex(uint64_t{1} << 62),
            Histogram::kNumBuckets - 1);

  Histogram h;
  h.Record(-5);  // clamps to 0
  h.Record(15);
  h.Record(32);
  h.Record(33);  // the octave [32, 64) has 2-ns sub-buckets: [32, 33]
  EXPECT_EQ(h.bucket_count(0), 1);
  EXPECT_EQ(h.bucket_count(15), 1);
  EXPECT_EQ(h.bucket_count(32), 2);
  EXPECT_EQ(Histogram::BucketUpperBound(32), 33);
  EXPECT_EQ(h.count(), 4);
  EXPECT_EQ(h.sum(), 0 + 15 + 32 + 33);
  EXPECT_EQ(h.max(), 33);
}

TEST(MetricsRegistry, HistogramFamilyRejectsNothingAndSnapshotsCumulate) {
  MetricsRegistry reg;
  const int owner = 0;
  Histogram h;
  reg.RegisterHistogram("saber_test_lat_nanos", {{"q", "0"}}, &h, &owner);
  // Samples on both sides of three exposition edges 2^k - 1, one below
  // the first edge and one past the last.
  const std::vector<int64_t> samples = {
      100,                   // le 65535
      (1 << 16) - 1,         // le 65535: the edge itself
      1 << 16,               // le 131071
      (1 << 20) - 1,         // le 1048575
      1 << 20,               // le 2097151
      (int64_t{1} << 33) - 1,  // le 8589934591
      int64_t{1} << 33,      // +Inf only
  };
  int64_t sum = 0;
  for (int64_t v : samples) {
    h.Record(v);
    sum += v;
  }
  const MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.families.size(), 1u);
  const FamilySnapshot& f = snap.families[0];
  EXPECT_EQ(f.type, MetricType::kHistogram);
  ASSERT_EQ(f.series.size(), 1u);
  EXPECT_EQ(f.series[0].count, 7);
  EXPECT_EQ(f.series[0].sum, sum);
  EXPECT_EQ(f.series[0].max, int64_t{1} << 33);
  ASSERT_EQ(f.series[0].bucket_counts.size(), Histogram::kNumBuckets);

  // The text exposition renders cumulative octave buckets plus _sum/_count;
  // every count is exact because octave edges are sub-bucket edges.
  const std::string text = RenderPrometheusText(snap);
  EXPECT_NE(text.find("# TYPE saber_test_lat_nanos histogram"),
            std::string::npos);
  auto bucket = [](const std::string& le, int64_t cumulative) {
    return "saber_test_lat_nanos_bucket{q=\"0\",le=\"" + le + "\"} " +
           std::to_string(cumulative) + "\n";
  };
  EXPECT_NE(text.find(bucket("65535", 2)), std::string::npos) << text;
  EXPECT_NE(text.find(bucket("131071", 3)), std::string::npos) << text;
  EXPECT_NE(text.find(bucket("524287", 3)), std::string::npos) << text;
  EXPECT_NE(text.find(bucket("1048575", 4)), std::string::npos) << text;
  EXPECT_NE(text.find(bucket("2097151", 5)), std::string::npos) << text;
  EXPECT_NE(text.find(bucket("4294967295", 5)), std::string::npos) << text;
  EXPECT_NE(text.find(bucket("8589934591", 6)), std::string::npos) << text;
  EXPECT_NE(text.find(bucket("+Inf", 7)), std::string::npos) << text;
  size_t lines = 0;
  for (size_t at = text.find("_bucket{"); at != std::string::npos;
       at = text.find("_bucket{", at + 1)) {
    ++lines;
  }
  EXPECT_EQ(lines, 19u) << "le = 2^k - 1 for k = 16..33, then +Inf";
  EXPECT_NE(text.find("saber_test_lat_nanos_sum{q=\"0\"} " +
                      std::to_string(sum)),
            std::string::npos);
  EXPECT_NE(text.find("saber_test_lat_nanos_count{q=\"0\"} 7"),
            std::string::npos);
  reg.Unregister(&owner);
}

TEST(MetricsRegistry, SummaryPrintsTheSamePercentilesAsTheHistogram) {
  MetricsRegistry reg;
  const int owner = 0;
  Histogram h;
  reg.RegisterHistogram("saber_test_lat_nanos", {{"q", "0"}}, &h, &owner);
  for (int64_t i = 0; i < 1000; ++i) h.Record(i * i * 37 + 11);
  const std::string out = FormatMetricsSummary(reg.Snapshot());
  const std::string want = "saber_test_lat_nanos{q=\"0\"} count=1000 p50=" +
                           std::to_string(h.Percentile(50)) +
                           " p99=" + std::to_string(h.Percentile(99)) + "\n";
  EXPECT_NE(out.find(want), std::string::npos) << out << "want: " << want;
  reg.Unregister(&owner);
}

TEST(MetricsRegistry, ExternalInstrumentRegisterUnregisterRepoint) {
  MetricsRegistry reg;
  const int owner_a = 0, owner_b = 0;  // distinct addresses as owner tags

  Counter first;
  first.Increment(41);
  reg.RegisterCounter("saber_test_ext_total", {{"slot", "3"}}, &first,
                      &owner_a, "externally owned");
  EXPECT_EQ(CounterIn(reg.Snapshot(), "saber_test_ext_total",
                      {{"slot", "3"}}),
            41)
      << "the snapshot must read the owner's storage, not a copy";

  // Slot recycling: a new owner re-registers the same (name, labels); the
  // series repoints and the wire sees an ordinary counter reset.
  Counter second;
  second.Increment(7);
  reg.RegisterCounter("saber_test_ext_total", {{"slot", "3"}}, &second,
                      &owner_b);
  EXPECT_EQ(CounterIn(reg.Snapshot(), "saber_test_ext_total",
                      {{"slot", "3"}}),
            7);

  // Unregister by owner drops the series (the instrument may now die).
  reg.Unregister(&owner_b);
  EXPECT_EQ(CounterIn(reg.Snapshot(), "saber_test_ext_total",
                      {{"slot", "3"}}),
            -1);
  // Unregistering the stale owner was already a no-op for this series.
  reg.Unregister(&owner_a);
}

TEST(MetricsRegistry, UnregisterDropsOnlyTheOwnersSeriesAndCollectors) {
  MetricsRegistry reg;
  const int owner = 0;
  Counter mine;
  reg.RegisterCounter("saber_test_mine_total", {}, &mine, &owner);
  reg.GetCounter("saber_test_owned_total")->Increment(3);
  std::atomic<int> collector_runs{0};
  reg.AddCollector([&collector_runs] { collector_runs.fetch_add(1); },
                   &owner);

  (void)reg.Snapshot();
  EXPECT_EQ(collector_runs.load(), 1);

  reg.Unregister(&owner);
  const MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(collector_runs.load(), 1) << "the owner's collector must be gone";
  EXPECT_EQ(CounterIn(snap, "saber_test_mine_total"), -1);
  EXPECT_EQ(CounterIn(snap, "saber_test_owned_total"), 3)
      << "registry-owned instruments survive every Unregister";
}

TEST(MetricsRegistry, CollectorsFoldLazyValuesBeforeTheRead) {
  MetricsRegistry reg;
  std::atomic<int64_t> external_source{0};
  reg.AddCollector([&reg, &external_source] {
    reg.GetCounter("saber_test_folded_total")
        ->StoreForCollector(external_source.load());
    reg.GetGauge("saber_test_depth")->Set(42.0);
  });
  external_source.store(17);
  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(CounterIn(snap, "saber_test_folded_total"), 17);
  external_source.store(23);
  snap = reg.Snapshot();
  EXPECT_EQ(CounterIn(snap, "saber_test_folded_total"), 23);
  bool gauge_seen = false;
  for (const auto& f : snap.families) {
    if (f.name == "saber_test_depth") {
      gauge_seen = true;
      EXPECT_EQ(f.series[0].gauge_value, 42.0);
    }
  }
  EXPECT_TRUE(gauge_seen);
}

TEST(MetricsRegistry, SnapshotUnderRegistrationChurnStaysMonotone) {
  // Writers keep incrementing and registering fresh series while a reader
  // snapshots: no crash, and every established counter is monotone across
  // successive snapshots (the per-family single-pass contract).
  MetricsRegistry reg;
  Counter* stable = reg.GetCounter("saber_test_stable_total");
  std::atomic<bool> stop{false};
  std::thread churn([&] {
    for (int i = 0; !stop.load(); ++i) {
      stable->Increment();
      reg.GetCounter("saber_test_churn_total",
                     {{"i", std::to_string(i % 64)}})
          ->Increment();
    }
  });
  int64_t last = -1;
  for (int i = 0; i < 200; ++i) {
    const MetricsSnapshot snap = reg.Snapshot();
    const int64_t v = CounterIn(snap, "saber_test_stable_total");
    EXPECT_GE(v, last);
    last = v;
  }
  stop.store(true);
  churn.join();
  EXPECT_EQ(CounterIn(reg.Snapshot(), "saber_test_stable_total"),
            stable->value());
}

TEST(MetricsRegistry, PrometheusTextEscapesLabelValuesAndEmitsHelp) {
  MetricsRegistry reg;
  reg.GetCounter("saber_test_esc_total", {{"name", "a\"b\\c\nd"}},
                 "counts \\ things")
      ->Increment(2);
  const std::string text = RenderPrometheusText(reg.Snapshot());
  EXPECT_NE(text.find("# HELP saber_test_esc_total counts \\\\ things"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE saber_test_esc_total counter"),
            std::string::npos);
  EXPECT_NE(
      text.find("saber_test_esc_total{name=\"a\\\"b\\\\c\\nd\"} 2"),
      std::string::npos)
      << text;
}

TEST(MetricsRegistry, SummaryElidesAllZeroFamiliesButNotSiblings) {
  MetricsRegistry reg;
  reg.GetCounter("saber_test_quiet_total");  // never incremented
  reg.GetCounter("saber_test_loud_total", {{"k", "a"}})->Increment(9);
  reg.GetCounter("saber_test_loud_total", {{"k", "b"}});  // zero sibling
  const std::string out = FormatMetricsSummary(reg.Snapshot(), ">> ");
  EXPECT_EQ(out.find("saber_test_quiet_total"), std::string::npos)
      << "an all-zero family must not clutter the summary";
  EXPECT_NE(out.find(">> saber_test_loud_total{k=\"a\"} 9"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find(">> saber_test_loud_total{k=\"b\"} 0"),
            std::string::npos)
      << "a zero series stays visible when a sibling fired";
}

}  // namespace
}  // namespace saber::obs
