#pragma once

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "core/task.h"
#include "runtime/align.h"
#include "runtime/clock.h"

/// \file throughput_matrix.h
/// The query task throughput matrix C of §4.2: C(q, p) is the observed number
/// of query tasks of query q executed per second on processor p. SABER makes
/// no use of offline performance models — the matrix is "initialised under a
/// uniform assumption" and "continuously updated by measuring the number of
/// tasks of a query that are executed in a certain time span on a particular
/// processor".
///
/// Implementation: per (q, p) cell, a ring of the last K completion
/// timestamps; the rate is (K-1) / (t_newest - t_oldest). The published rate
/// is refreshed at most once per update_interval (100 ms in the Fig. 16
/// adaptation experiment) so scheduling reads are a single atomic load.

namespace saber {

class ThroughputMatrix {
 public:
  static constexpr size_t kWindow = 8;

  /// Floor applied to every published rate. HLS (Algorithm 1) divides by
  /// C(q, p) when accumulating delay; a zero rate — reachable through the
  /// public SetRate — would otherwise produce an infinite/NaN delay that
  /// permanently wedges the lookahead. 1e-6 tasks/s models "effectively
  /// never" while keeping the arithmetic finite.
  static constexpr double kMinRate = 1e-6;

  explicit ThroughputMatrix(size_t num_queries,
                            double initial_rate = 100.0,
                            int64_t update_interval_nanos = 100'000'000)
      : update_interval_nanos_(update_interval_nanos),
        initial_rate_(initial_rate) {
    cells_.reserve(num_queries * kNumProcessors);
    for (size_t i = 0; i < num_queries * kNumProcessors; ++i) {
      cells_.push_back(std::make_unique<Cell>(initial_rate));
    }
  }

  /// Returns a query's cells to the uniform-assumption prior (query slot
  /// retirement: a readmitted slot must not inherit the retired tenant's
  /// measured rates or switch counts). Safe to call concurrently with
  /// readers; they observe either the old rates or the prior.
  void ResetQuery(int query) {
    for (int pi = 0; pi < kNumProcessors; ++pi) {
      Cell& c = cell(query, static_cast<Processor>(pi));
      std::lock_guard<std::mutex> lock(c.mu);
      c.head = 0;
      for (size_t i = 0; i < kWindow; ++i) c.completions[i] = 0;
      c.rate.store(initial_rate_, std::memory_order_relaxed);
      c.last_refresh.store(0, std::memory_order_relaxed);
      c.exec_count.store(0, std::memory_order_relaxed);
    }
  }

  /// Records a completed task of query q on processor p.
  void RecordCompletion(int query, Processor p) {
    Cell& c = cell(query, p);
    const int64_t now = NowNanos();
    {
      std::lock_guard<std::mutex> lock(c.mu);
      c.completions[c.head % kWindow] = now;
      ++c.head;
    }
    MaybeRefresh(c, now);
  }

  /// Published rate C(q, p) in tasks/second, floored to kMinRate so the
  /// scheduler's 1/rate delay arithmetic stays finite.
  double Rate(int query, Processor p) const {
    return std::max(cell(query, p).rate.load(std::memory_order_relaxed),
                    kMinRate);
  }

  /// The processor with the highest observed rate for q (ties favor CPU,
  /// matching argmax order over {CPU, GPGPU}).
  Processor Preferred(int query) const {
    return Rate(query, Processor::kCpu) >= Rate(query, Processor::kGpu)
               ? Processor::kCpu
               : Processor::kGpu;
  }

  /// Execution-count bookkeeping for the HLS switch threshold (Alg. 1's
  /// `count` function).
  int64_t Count(int query, Processor p) const {
    return cell(query, p).exec_count.load(std::memory_order_relaxed);
  }
  void IncrementCount(int query, Processor p) {
    cell(query, p).exec_count.fetch_add(1, std::memory_order_relaxed);
  }
  void ResetCount(int query, Processor p) {
    cell(query, p).exec_count.store(0, std::memory_order_relaxed);
  }

  /// Multiplies the published rate for (q, p) by `factor` (in (0, 1]),
  /// floored at kMinRate. The GPGPU failover path decays a failing device's
  /// rate so HLS steers new tasks away immediately, without waiting out the
  /// refresh interval; the next MaybeRefresh that publishes a *measured*
  /// rate (e.g. after successful probe tasks) overwrites the decayed value,
  /// which is the natural re-admission path.
  void DecayRate(int query, Processor p, double factor) {
    Cell& c = cell(query, p);
    const double cur =
        std::max(c.rate.load(std::memory_order_relaxed), kMinRate);
    c.rate.store(std::max(cur * factor, kMinRate), std::memory_order_relaxed);
    if (refresh_listener_) refresh_listener_();
  }

  /// Forces a rate (tests and the Fig. 5 worked example).
  void SetRate(int query, Processor p, double rate) {
    Cell& c = cell(query, p);
    c.rate.store(rate, std::memory_order_relaxed);
    if (refresh_listener_) refresh_listener_();
  }

  /// Invoked after a new rate is published (the scheduling stage re-checks
  /// task eligibility when the matrix drifts, instead of polling on a
  /// timer). Must be set before worker threads start; may be invoked
  /// concurrently from any thread that records completions.
  void SetRefreshListener(std::function<void()> listener) {
    refresh_listener_ = std::move(listener);
  }

 private:
  struct Cell {
    explicit Cell(double initial) : rate(initial) {}
    std::mutex mu;
    int64_t completions[kWindow] = {0};
    size_t head = 0;
    std::atomic<double> rate;
    std::atomic<int64_t> last_refresh{0};
    std::atomic<int64_t> exec_count{0};
  };

  void MaybeRefresh(Cell& c, int64_t now) {
    int64_t last = c.last_refresh.load(std::memory_order_relaxed);
    if (now - last < update_interval_nanos_) return;
    if (!c.last_refresh.compare_exchange_strong(last, now,
                                                std::memory_order_relaxed)) {
      return;
    }
    {
      std::lock_guard<std::mutex> lock(c.mu);
      if (c.head < kWindow) return;  // not enough samples yet
      const int64_t newest = c.completions[(c.head - 1) % kWindow];
      const int64_t oldest = c.completions[c.head % kWindow];
      if (newest <= oldest) return;
      const double rate =
          static_cast<double>(kWindow - 1) / ((newest - oldest) * 1e-9);
      c.rate.store(rate, std::memory_order_relaxed);
    }
    // Outside the cell lock: the listener takes the task-queue lock.
    if (refresh_listener_) refresh_listener_();
  }

  Cell& cell(int query, Processor p) {
    return *cells_[query * kNumProcessors + static_cast<int>(p)];
  }
  const Cell& cell(int query, Processor p) const {
    return *cells_[query * kNumProcessors + static_cast<int>(p)];
  }

  const int64_t update_interval_nanos_;
  const double initial_rate_;
  std::vector<std::unique_ptr<Cell>> cells_;
  std::function<void()> refresh_listener_;
};

}  // namespace saber
