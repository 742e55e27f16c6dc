#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

/// \file histogram.h
/// A log-linear latency histogram (HdrHistogram-style, coarse). Worker
/// threads record per-task latencies concurrently; the evaluation harness
/// reads percentiles for the latency curves of Figs. 11 and 12.

namespace saber {

class LatencyHistogram {
 public:
  static constexpr int kSubBuckets = 16;           // linear buckets per octave
  static constexpr int kOctaves = 44;              // covers ~1ns .. ~4.8h

  LatencyHistogram() : buckets_(kOctaves * kSubBuckets) {}

  void RecordNanos(int64_t nanos) {
    if (nanos < 0) nanos = 0;
    buckets_[BucketIndex(static_cast<uint64_t>(nanos))].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(nanos, std::memory_order_relaxed);
    int64_t prev = max_.load(std::memory_order_relaxed);
    while (nanos > prev &&
           !max_.compare_exchange_weak(prev, nanos, std::memory_order_relaxed)) {
    }
  }

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  int64_t max_nanos() const { return max_.load(std::memory_order_relaxed); }
  double mean_nanos() const {
    const int64_t c = count();
    return c == 0 ? 0.0 : static_cast<double>(sum_.load(std::memory_order_relaxed)) / c;
  }

  /// Approximate value at percentile `p` in [0, 100]. Clamped to the
  /// observed maximum: a bucket's upper bound can exceed every recorded
  /// value in it, which would otherwise report p100 > max.
  int64_t PercentileNanos(double p) const {
    const int64_t total = count();
    if (total == 0) return 0;
    int64_t rank = static_cast<int64_t>(std::ceil(p / 100.0 * total));
    if (rank < 1) rank = 1;
    int64_t seen = 0;
    for (size_t i = 0; i < buckets_.size(); ++i) {
      seen += buckets_[i].load(std::memory_order_relaxed);
      if (seen >= rank) return std::min(BucketUpperBound(i), max_nanos());
    }
    return max_nanos();
  }

  std::string Summary() const {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "count=%lld mean=%.1fus p50=%.1fus p99=%.1fus max=%.1fus",
                  static_cast<long long>(count()), mean_nanos() / 1e3,
                  PercentileNanos(50) / 1e3, PercentileNanos(99) / 1e3,
                  max_nanos() / 1e3);
    return buf;
  }

 private:
  static size_t BucketIndex(uint64_t v) {
    if (v < kSubBuckets) return static_cast<size_t>(v);
    const int msb = 63 - __builtin_clzll(v);
    const int octave = msb - 3;  // values < 16 handled above
    const uint64_t sub = (v >> (msb - 4)) & (kSubBuckets - 1);
    size_t idx = static_cast<size_t>(octave) * kSubBuckets + sub;
    const size_t last = static_cast<size_t>(kOctaves) * kSubBuckets - 1;
    return idx > last ? last : idx;
  }

  static int64_t BucketUpperBound(size_t idx) {
    if (idx < kSubBuckets) return static_cast<int64_t>(idx);
    const size_t octave = idx / kSubBuckets;
    const size_t sub = idx % kSubBuckets;
    // Inverse of BucketIndex: the bucket holds values in
    // [(16+sub) << (octave-1), (16+sub+1) << (octave-1)), so its largest
    // representable value is one below the next bucket's base. (Returning
    // the *base* here would under-report: a single sample's p100 would come
    // out below the observed maximum.)
    return static_cast<int64_t>(((16 + sub + 1) << (octave - 1)) - 1);
  }

  std::vector<std::atomic<int64_t>> buckets_;
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
  std::atomic<int64_t> max_{0};
};

}  // namespace saber
