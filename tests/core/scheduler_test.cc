#include "core/schedulers.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>

namespace saber {
namespace {

QueryTask* MakeTask(std::vector<std::unique_ptr<QueryTask>>& owner, int query,
                    int64_t id = 0) {
  owner.push_back(std::make_unique<QueryTask>());
  owner.back()->query_index = query;
  owner.back()->id = id;
  return owner.back().get();
}

/// The Fig. 5 scenario: three queries with throughput matrix
///   q1: (CPU 50, GPGPU 20), q2: (5, 15), q3: (20, 30),
/// a queue of GPGPU-preferring tasks, and a CPU worker that looks ahead
/// until the accumulated GPGPU delay makes stealing worthwhile.
///
/// (The paper's prose walks v1..v3 = q2,q2,q3 accumulating 1/6 before
/// stealing v4; under Algorithm 1 as printed, a q3 task would already be
/// stolen at delay 2/15 >= 1/20, so this test uses v1..v3 = q2 — same
/// mechanism, arithmetic consistent with the algorithm.)
class Fig5Test : public ::testing::Test {
 protected:
  void SetUp() override {
    matrix_ = std::make_unique<ThroughputMatrix>(3);
    matrix_->SetRate(0, Processor::kCpu, 50);   // q1
    matrix_->SetRate(0, Processor::kGpu, 20);
    matrix_->SetRate(1, Processor::kCpu, 5);    // q2
    matrix_->SetRate(1, Processor::kGpu, 15);
    matrix_->SetRate(2, Processor::kCpu, 20);   // q3
    matrix_->SetRate(2, Processor::kGpu, 30);
    // v1..v3 = q2: each accumulates 1/15 of GPGPU delay for a CPU worker
    // (stealing q2 costs 1/5 > delay throughout). v4 = q3: stealing costs
    // 1/20 <= 3/15, so the CPU worker takes it.
    queue_.push_back(MakeTask(owner_, 1, 1));  // v1 = q2
    queue_.push_back(MakeTask(owner_, 1, 2));  // v2 = q2
    queue_.push_back(MakeTask(owner_, 1, 3));  // v3 = q2
    queue_.push_back(MakeTask(owner_, 2, 4));  // v4 = q3
    queue_.push_back(MakeTask(owner_, 0, 5));  // v5 = q1
  }

  std::vector<std::unique_ptr<QueryTask>> owner_;
  std::deque<QueryTask*> queue_;
  std::unique_ptr<ThroughputMatrix> matrix_;
};

TEST_F(Fig5Test, CpuWorkerLooksAheadToV4) {
  HlsScheduler hls(/*switch_threshold=*/100);
  QueryTask* t = hls.Select(queue_, Processor::kCpu, *matrix_);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->id, 4);  // v4 (q3) chosen over waiting for the GPGPU
  EXPECT_EQ(queue_.size(), 4u);
}

TEST_F(Fig5Test, GpuWorkerTakesHead) {
  HlsScheduler hls(100);
  QueryTask* t = hls.Select(queue_, Processor::kGpu, *matrix_);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->id, 1);  // head of queue, preferred processor
}

TEST_F(Fig5Test, CpuWorkerPrefersItsOwnQueryWhenReached) {
  // Remove v4 so the CPU's first eligible task is v5 (q1, CPU-preferred).
  queue_.erase(queue_.begin() + 3);
  // Accumulated delay at v5: 1/15+1/15+1/30 = 1/6 < 1/C(q1,CPU)=1/50? The
  // delay rule does not matter: q1 prefers the CPU, so it is taken directly.
  HlsScheduler hls(100);
  QueryTask* t = hls.Select(queue_, Processor::kCpu, *matrix_);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->id, 5);
}

TEST(HlsScheduler, ReturnsNullWhenNothingEligible) {
  // One task, prefers GPGPU, no accumulated delay: a CPU worker must wait.
  ThroughputMatrix m(1);
  m.SetRate(0, Processor::kCpu, 1);
  m.SetRate(0, Processor::kGpu, 100);
  std::vector<std::unique_ptr<QueryTask>> owner;
  std::deque<QueryTask*> q;
  q.push_back(MakeTask(owner, 0));
  HlsScheduler hls(100);
  EXPECT_EQ(hls.Select(q, Processor::kCpu, m), nullptr);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_NE(hls.Select(q, Processor::kGpu, m), nullptr);
}

TEST(HlsScheduler, SwitchThresholdForcesExploration) {
  // After st executions on the preferred processor, the task must be handed
  // to the other processor (so its rate can be observed), and the preferred
  // counter resets (Alg. 1 lines 6-8).
  ThroughputMatrix m(1);
  m.SetRate(0, Processor::kCpu, 100);
  m.SetRate(0, Processor::kGpu, 1);
  HlsScheduler hls(/*switch_threshold=*/3);
  std::vector<std::unique_ptr<QueryTask>> owner;

  int cpu_runs = 0, gpu_runs = 0;
  for (int round = 0; round < 8; ++round) {
    std::deque<QueryTask*> q;
    q.push_back(MakeTask(owner, 0));
    // Offer to the CPU first (preferred), then the GPGPU.
    if (hls.Select(q, Processor::kCpu, m) != nullptr) {
      ++cpu_runs;
      continue;
    }
    if (hls.Select(q, Processor::kGpu, m) != nullptr) ++gpu_runs;
  }
  EXPECT_EQ(cpu_runs + gpu_runs, 8);
  EXPECT_EQ(gpu_runs, 2);  // every 4th task explores the GPGPU
}

TEST(HlsScheduler, NarrowedRetryBypassesSwitchThreshold) {
  // GPGPU-failover regression: a device-failed task is requeued at the
  // queue front narrowed to the CPU. The switch threshold exists to force
  // the *other* processor to observe the query — but the other processor is
  // exactly what the retry's mask forbids, so honoring the threshold would
  // refuse the task forever on the only processor allowed to run it (and
  // the count could never reset, since only a GPGPU selection of the query
  // resets it). Observed as a whole-engine wedge: the retry gates its
  // query's assembly ring while every CPU worker sleeps on a full queue.
  ThroughputMatrix m(1);
  m.SetRate(0, Processor::kCpu, 10);
  m.SetRate(0, Processor::kGpu, 100);  // device-preferred query
  HlsScheduler hls(/*switch_threshold=*/3);
  // The query ran on the CPU past the threshold with no GPGPU observation.
  for (int i = 0; i < 5; ++i) m.IncrementCount(0, Processor::kCpu);

  std::vector<std::unique_ptr<QueryTask>> owner;
  std::deque<QueryTask*> q;
  QueryTask* retry = MakeTask(owner, 0, /*id=*/7);
  retry->allowed = ProcessorBit(Processor::kCpu);  // failover-narrowed
  q.push_back(retry);                  // Requeue puts the retry at the front
  q.push_back(MakeTask(owner, 0, 8));  // younger hybrid tasks of the query
  q.push_back(MakeTask(owner, 0, 9));

  QueryTask* t = hls.Select(q, Processor::kCpu, m);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->id, 7);  // the narrowed retry, despite Count(q, CPU) >= st
}

TEST(HlsScheduler, DelayStealNeverSelectsPastAQuerysEarlierTask) {
  // The delay steal (Alg. 1 line 6 case ii) accrues delay between queue
  // positions, so it can qualify a position whose query's *head* task was
  // just refused — selecting the query out of task-id order. The result
  // stage's slot ring depends on per-query id order to bound the
  // completed-but-unassembled gap below kSlots; running ahead of a refused
  // head wedges the runahead worker in the slot-ring spin, after which the
  // switch threshold that refused the head can never be satisfied (observed
  // as a whole-engine wedge under GPGPU failover). A later task of a query
  // whose earlier task was scanned must never be a candidate.
  ThroughputMatrix m(1);
  m.SetRate(0, Processor::kCpu, 4);  // CPU-preferred query
  m.SetRate(0, Processor::kGpu, 2);
  HlsScheduler hls(/*switch_threshold=*/100);

  std::vector<std::unique_ptr<QueryTask>> owner;
  std::deque<QueryTask*> q;
  q.push_back(MakeTask(owner, 0, 7));
  q.push_back(MakeTask(owner, 0, 8));
  q.push_back(MakeTask(owner, 0, 9));
  // GPGPU scan: head refused (delay 0 < 1/rate_gpu), and by position 2 the
  // accumulated delay (2/rate_cpu = 0.5 >= 1/rate_gpu = 0.5) would have
  // qualified task 9 as a steal. It must refuse instead: task 7 gates the
  // assembly ring.
  EXPECT_EQ(hls.Select(q, Processor::kGpu, m), nullptr);
  // The preferred processor takes the head in order.
  QueryTask* t = hls.Select(q, Processor::kCpu, m);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->id, 7);
}

TEST(HlsScheduler, ResumedScanKeepsPerQueryOrder) {
  // A failed scan persists its position and delay so appends re-scan only
  // the tail — but the skipped prefix holds earlier tasks of the same query,
  // so the resumed scan must also remember which queries it saw, or an
  // appended task rides the accumulated delay into an out-of-order steal.
  ThroughputMatrix m(1);
  m.SetRate(0, Processor::kCpu, 4);
  m.SetRate(0, Processor::kGpu, 2);
  HlsScheduler hls(/*switch_threshold=*/100);

  std::vector<std::unique_ptr<QueryTask>> owner;
  std::deque<QueryTask*> q;
  q.push_back(MakeTask(owner, 0, 7));
  ScanState scan;
  EXPECT_EQ(hls.Select(q, Processor::kGpu, m, &scan), nullptr);
  EXPECT_EQ(scan.resume_pos, 1u);
  // Appends arrive while task 7 is still queued (refused above).
  q.push_back(MakeTask(owner, 0, 8));
  q.push_back(MakeTask(owner, 0, 9));
  // Resumed scan: delay reaches the steal bar at task 9, but its query's
  // head is in the skipped prefix — still ineligible.
  EXPECT_EQ(hls.Select(q, Processor::kGpu, m, &scan), nullptr);
  // A fresh scan (prefix invalidated) on the CPU takes the head.
  QueryTask* t = hls.Select(q, Processor::kCpu, m);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->id, 7);
}

TEST(HlsScheduler, WeightedSharesServeProportionally) {
  // Two always-backlogged tenants with weights 8:1 on a single processor.
  // The deficit discipline charges service as bytes/weight, so over N
  // selections the heavy tenant must win ~8/9 of them — and the light
  // tenant must never wait much longer than its fair period (anti-
  // starvation: this is the regression the weighted variant exists for;
  // plain Alg. 1 serves the scan prefix and can starve a tenant forever
  // behind a hot one).
  ThroughputMatrix m(2);
  HlsScheduler hls(/*switch_threshold=*/1 << 20, /*lookahead_cap=*/64,
                   /*cpu_enabled=*/true, /*gpu_enabled=*/false);
  hls.SetQueryWeight(0, 8.0);
  hls.SetQueryWeight(1, 1.0);
  std::vector<std::unique_ptr<QueryTask>> owner;
  std::deque<QueryTask*> queue;
  auto feed = [&](int query) {
    QueryTask* t = MakeTask(owner, query, static_cast<int64_t>(owner.size()));
    t->total_bytes = 4096;
    queue.push_back(t);
  };
  for (int i = 0; i < 4; ++i) {
    feed(0);
    feed(1);
  }
  int counts[2] = {0, 0};
  int light_gap = 0, max_light_gap = 0;
  for (int round = 0; round < 900; ++round) {
    QueryTask* t = hls.Select(queue, Processor::kCpu, m);
    ASSERT_NE(t, nullptr);
    ++counts[t->query_index];
    if (t->query_index == 1) {
      light_gap = 0;
    } else {
      max_light_gap = std::max(max_light_gap, ++light_gap);
    }
    feed(t->query_index);  // keep the selected tenant backlogged
  }
  EXPECT_EQ(counts[0] + counts[1], 900);
  EXPECT_NEAR(counts[0], 800, 16);  // 8/9 of 900, modulo startup transient
  EXPECT_NEAR(counts[1], 100, 16);
  // Fair period is 9 selections; 2x covers the deficit phase boundaries.
  EXPECT_GT(counts[1], 0);
  EXPECT_LE(max_light_gap, 18);
}

TEST(HlsScheduler, LateAdmissionStartsAtTheServiceBaseline) {
  // A tenant admitted after others accumulated service must start at the
  // current baseline, not at zero — zero would hand it every selection
  // until it "caught up", monopolizing the queue on admission.
  ThroughputMatrix m(3);
  HlsScheduler hls(/*switch_threshold=*/1 << 20, /*lookahead_cap=*/64,
                   /*cpu_enabled=*/true, /*gpu_enabled=*/false);
  hls.SetQueryWeight(0, 8.0);
  hls.SetQueryWeight(1, 1.0);
  std::vector<std::unique_ptr<QueryTask>> owner;
  std::deque<QueryTask*> queue;
  auto feed = [&](int query) {
    QueryTask* t = MakeTask(owner, query, static_cast<int64_t>(owner.size()));
    t->total_bytes = 4096;
    queue.push_back(t);
  };
  for (int i = 0; i < 4; ++i) {
    feed(0);
    feed(1);
  }
  for (int round = 0; round < 450; ++round) {
    QueryTask* t = hls.Select(queue, Processor::kCpu, m);
    ASSERT_NE(t, nullptr);
    feed(t->query_index);
  }
  // Admit tenant 2 (weight 1) into the warmed-up engine.
  hls.SetQueryWeight(2, 1.0);
  feed(2);
  int late_count = 0;
  for (int round = 0; round < 100; ++round) {
    QueryTask* t = hls.Select(queue, Processor::kCpu, m);
    ASSERT_NE(t, nullptr);
    if (t->query_index == 2) ++late_count;
    feed(t->query_index);
  }
  // Fair share is 1/10 of 100 selections. Allow generous slack both ways:
  // the failure mode guarded against is winning nearly everything.
  EXPECT_GE(late_count, 2);
  EXPECT_LE(late_count, 40);
}

TEST(FcfsScheduler, AlwaysTakesHead) {
  ThroughputMatrix m(2);
  m.SetRate(0, Processor::kCpu, 1);
  m.SetRate(0, Processor::kGpu, 1000);
  FcfsScheduler fcfs;
  std::vector<std::unique_ptr<QueryTask>> owner;
  std::deque<QueryTask*> q;
  q.push_back(MakeTask(owner, 0, 1));
  q.push_back(MakeTask(owner, 1, 2));
  QueryTask* t = fcfs.Select(q, Processor::kCpu, m);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->id, 1);  // ignores the preference entirely
}

TEST(StaticScheduler, HonorsAssignment) {
  ThroughputMatrix m(2);
  StaticScheduler sched({{0, Processor::kGpu}, {1, Processor::kCpu}});
  std::vector<std::unique_ptr<QueryTask>> owner;
  std::deque<QueryTask*> q;
  q.push_back(MakeTask(owner, 0, 1));
  q.push_back(MakeTask(owner, 1, 2));
  QueryTask* t = sched.Select(q, Processor::kCpu, m);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->id, 2);  // skips the GPGPU-assigned task
  t = sched.Select(q, Processor::kGpu, m);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->id, 1);
}

TEST(ThroughputMatrix, EstimatesRateFromCompletions) {
  ThroughputMatrix m(1, /*initial_rate=*/10.0, /*update_interval_nanos=*/0);
  EXPECT_DOUBLE_EQ(m.Rate(0, Processor::kCpu), 10.0);
  // Record 9 completions ~1 ms apart => ~1000 tasks/s.
  for (int i = 0; i < 9; ++i) {
    m.RecordCompletion(0, Processor::kCpu);
    WaitUntilNanos(NowNanos() + 1'000'000);
  }
  const double rate = m.Rate(0, Processor::kCpu);
  EXPECT_GT(rate, 400.0);
  EXPECT_LT(rate, 1600.0);
}

TEST(ThroughputMatrix, PreferredTracksRates) {
  ThroughputMatrix m(1);
  m.SetRate(0, Processor::kCpu, 5);
  m.SetRate(0, Processor::kGpu, 50);
  EXPECT_EQ(m.Preferred(0), Processor::kGpu);
  m.SetRate(0, Processor::kCpu, 500);
  EXPECT_EQ(m.Preferred(0), Processor::kCpu);
}

TEST(HlsScheduler, ZeroRateDoesNotWedgeLookahead) {
  // Regression: SetRate(q, p, 0.0) is public; 1/rate inside Algorithm 1
  // produced an inf delay (and inf >= inf comparisons) that permanently
  // wedged the lookahead. Rate() now floors to kMinRate, so delays stay
  // finite and both processors keep making progress.
  ThroughputMatrix m(2);
  for (int q = 0; q < 2; ++q) {
    m.SetRate(q, Processor::kCpu, 0.0);
    m.SetRate(q, Processor::kGpu, 0.0);
  }
  EXPECT_GT(m.Rate(0, Processor::kCpu), 0.0);
  EXPECT_TRUE(std::isfinite(1.0 / m.Rate(0, Processor::kCpu)));

  std::vector<std::unique_ptr<QueryTask>> owner;
  std::deque<QueryTask*> q;
  q.push_back(MakeTask(owner, 0, 1));
  q.push_back(MakeTask(owner, 1, 2));
  HlsScheduler hls(/*switch_threshold=*/100);
  // Zero rates tie -> both queries prefer the CPU. Scanning as the GPGPU,
  // the head task accumulates the floored (huge but finite) delay
  // 1/kMinRate, which satisfies `delay >= 1/rate_p` at the second task:
  // the GPGPU steals it instead of wedging on inf/NaN comparisons.
  QueryTask* t = hls.Select(q, Processor::kGpu, m);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->id, 2);
  // The CPU takes the remaining head directly (preferred processor).
  t = hls.Select(q, Processor::kCpu, m);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->id, 1);
  EXPECT_TRUE(q.empty());
}

TEST(HlsScheduler, ScanStateResumesWhereFailedScanStopped) {
  // A failed scan persists its position and accumulated delay; a re-scan
  // after an append must reach the same decision as a scan from scratch.
  ThroughputMatrix m(2);
  m.SetRate(0, Processor::kCpu, 5);    // q0 prefers the GPGPU
  m.SetRate(0, Processor::kGpu, 15);
  m.SetRate(1, Processor::kCpu, 50);   // q1 prefers the CPU
  m.SetRate(1, Processor::kGpu, 20);
  HlsScheduler hls(/*switch_threshold=*/100);
  std::vector<std::unique_ptr<QueryTask>> owner;
  std::deque<QueryTask*> q;
  q.push_back(MakeTask(owner, 0, 1));
  q.push_back(MakeTask(owner, 0, 2));

  ScanState scan;
  EXPECT_EQ(hls.Select(q, Processor::kCpu, m, &scan), nullptr);
  EXPECT_EQ(scan.resume_pos, 2u);
  EXPECT_NEAR(scan.resume_delay, 2.0 / 15.0, 1e-12);

  // Append a CPU-preferred task: resuming from the hint must find it.
  q.push_back(MakeTask(owner, 1, 3));
  QueryTask* t = hls.Select(q, Processor::kCpu, m, &scan);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->id, 3);
}

TEST(HlsScheduler, EligibleProcessorsMask) {
  ThroughputMatrix m(1);
  m.SetRate(0, Processor::kCpu, 50);
  m.SetRate(0, Processor::kGpu, 10);
  HlsScheduler hls(/*switch_threshold=*/3);
  std::vector<std::unique_ptr<QueryTask>> owner;
  QueryTask* t = MakeTask(owner, 0);

  // Empty queue, threshold not reached: only the preferred processor can
  // take the new task (zero delay never justifies a steal).
  EXPECT_EQ(hls.EligibleProcessors(*t, /*queue_was_empty=*/true, m),
            ProcessorBit(Processor::kCpu));
  // Tasks ahead in the queue: accumulated delay may let the other steal.
  EXPECT_EQ(hls.EligibleProcessors(*t, /*queue_was_empty=*/false, m),
            kAllProcessors);
  // Switch threshold exceeded: the preferred processor must not take it;
  // the other explores.
  m.IncrementCount(0, Processor::kCpu);
  m.IncrementCount(0, Processor::kCpu);
  m.IncrementCount(0, Processor::kCpu);
  EXPECT_EQ(hls.EligibleProcessors(*t, /*queue_was_empty=*/true, m),
            ProcessorBit(Processor::kGpu));
}

TEST(StaticScheduler, EligibleProcessorsIsTheAssignment) {
  ThroughputMatrix m(2);
  StaticScheduler sched({{0, Processor::kGpu}});
  std::vector<std::unique_ptr<QueryTask>> owner;
  EXPECT_EQ(sched.EligibleProcessors(*MakeTask(owner, 0), true, m),
            ProcessorBit(Processor::kGpu));
  // Unassigned queries default to the CPU.
  EXPECT_EQ(sched.EligibleProcessors(*MakeTask(owner, 1), true, m),
            ProcessorBit(Processor::kCpu));
}

TEST(TaskQueue, PushSelectClose) {
  TaskQueue q;
  ThroughputMatrix m(1);
  FcfsScheduler fcfs;
  std::vector<std::unique_ptr<QueryTask>> owner;
  EXPECT_TRUE(q.Push(MakeTask(owner, 0, 1)));
  EXPECT_EQ(q.size(), 1u);
  QueryTask* t = q.Select(fcfs, Processor::kCpu, m);
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->id, 1);
  q.Close();
  EXPECT_EQ(q.Select(fcfs, Processor::kCpu, m), nullptr);
  EXPECT_FALSE(q.Push(MakeTask(owner, 0, 2)));
}

TEST(TaskQueue, PushWakesBlockedWorker) {
  // A worker blocked on an empty queue must wake on Push with no timed
  // re-poll (the old 1 ms wait_for is gone: a lost wakeup now hangs).
  TaskQueue q;
  ThroughputMatrix m(1);
  FcfsScheduler fcfs;
  std::vector<std::unique_ptr<QueryTask>> owner;
  std::atomic<QueryTask*> got{nullptr};
  std::thread worker(
      [&] { got.store(q.Select(fcfs, Processor::kCpu, m)); });
  q.Push(MakeTask(owner, 0, 7), &fcfs, &m);
  worker.join();
  ASSERT_NE(got.load(), nullptr);
  EXPECT_EQ(got.load()->id, 7);
}

TEST(TaskQueue, MatrixRefreshWakesIneligibleWorker) {
  // One GPGPU-preferred task, a CPU worker, no accumulated delay: the task
  // is ineligible for the CPU, so the worker blocks. When the matrix
  // publishes new rates that flip the preference, OnEligibilityChanged —
  // wired via SetRefreshListener, as the engine does — must wake it.
  TaskQueue q;
  ThroughputMatrix m(1);
  m.SetRate(0, Processor::kCpu, 1);
  m.SetRate(0, Processor::kGpu, 100);
  m.SetRefreshListener([&q] { q.OnEligibilityChanged(); });
  HlsScheduler hls(/*switch_threshold=*/100);
  std::vector<std::unique_ptr<QueryTask>> owner;
  ASSERT_TRUE(q.Push(MakeTask(owner, 0, 1), &hls, &m));

  std::atomic<QueryTask*> got{nullptr};
  std::thread worker([&] { got.store(q.Select(hls, Processor::kCpu, m)); });
  // Give the worker time to scan, refuse, and block. (The sleep only makes
  // the race window wide; correctness does not depend on it.)
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(got.load(), nullptr);
  m.SetRate(0, Processor::kCpu, 1000);  // preference flips -> listener fires
  worker.join();  // hangs here if the refresh wakeup is lost
  ASSERT_NE(got.load(), nullptr);
  EXPECT_EQ(got.load()->id, 1);
}

TEST(TaskQueue, StealEnabledByLaterPushWakesOtherProcessor) {
  // First push: a GPGPU-preferred task on an empty queue -> only the GPGPU
  // is eligible (zero delay never justifies a steal), so the CPU worker
  // stays blocked. Later pushes accumulate delay ahead of the new tail —
  // with C(q, GPGPU) = 101 and C(q, CPU) = 100, two queued tasks give
  // 2/101 >= 1/100 — so the third push's eligibility mask must include
  // (and wake) the CPU, which steals the delayed task. The stolen task
  // belongs to a *different* query than the backlog: a query's own later
  // task is never stolen past its queued head (per-query id order — see
  // DelayStealNeverSelectsPastAQuerysEarlierTask), so the steal target is
  // the other query's earliest task, queued behind the delay.
  TaskQueue q;
  ThroughputMatrix m(2);
  for (int query = 0; query < 2; ++query) {
    m.SetRate(query, Processor::kCpu, 100);  // stealing is cheap for the CPU
    m.SetRate(query, Processor::kGpu, 101);  // ...but the GPGPU is preferred
  }
  HlsScheduler hls(/*switch_threshold=*/1000);
  std::vector<std::unique_ptr<QueryTask>> owner;

  std::atomic<QueryTask*> got{nullptr};
  ASSERT_TRUE(q.Push(MakeTask(owner, 0, 1), &hls, &m));
  std::thread worker([&] { got.store(q.Select(hls, Processor::kCpu, m)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(got.load(), nullptr);  // delay 0: no steal possible
  ASSERT_TRUE(q.Push(MakeTask(owner, 0, 2), &hls, &m));  // 1/101 < 1/100
  ASSERT_TRUE(q.Push(MakeTask(owner, 1, 3), &hls, &m));  // 2/101 >= 1/100
  worker.join();  // hangs if the enabling push does not wake the CPU
  ASSERT_NE(got.load(), nullptr);
  EXPECT_EQ(got.load()->id, 3);  // stole q1's head behind q0's queued delay
}

TEST(TaskQueue, AvailabilityListenerFiresOnEligiblePush) {
  TaskQueue q;
  ThroughputMatrix m(1);
  FcfsScheduler fcfs;
  std::vector<std::unique_ptr<QueryTask>> owner;
  std::atomic<int> pings{0};
  q.SetAvailabilityListener(Processor::kGpu, [&] { pings.fetch_add(1); });
  q.Push(MakeTask(owner, 0, 1), &fcfs, &m);  // FCFS: everyone eligible
  EXPECT_EQ(pings.load(), 1);
  // An FCFS removal never changes eligibility: no broadcast, no ping.
  ASSERT_NE(q.Select(fcfs, Processor::kGpu, m), nullptr);
  EXPECT_EQ(pings.load(), 1);
  q.SetAvailabilityListener(Processor::kGpu, nullptr);  // detach barrier
  const int after_detach = pings.load();
  q.Push(MakeTask(owner, 0, 2), &fcfs, &m);
  q.Close();
  EXPECT_EQ(pings.load(), after_detach);  // no invocations after detach
  for (QueryTask* t : q.DrainRemaining()) (void)t;
}

TEST(TaskQueue, HlsSelectionBroadcastsEligibility) {
  // An HLS removal mutates the switch counts and shifts the lookahead
  // window, so a successful Select must broadcast — including the GPGPU
  // availability listener.
  TaskQueue q;
  ThroughputMatrix m(1);
  HlsScheduler hls(/*switch_threshold=*/100);
  std::vector<std::unique_ptr<QueryTask>> owner;
  std::atomic<int> pings{0};
  m.SetRate(0, Processor::kCpu, 100);  // CPU-preferred
  m.SetRate(0, Processor::kGpu, 1);
  q.SetAvailabilityListener(Processor::kGpu, [&] { pings.fetch_add(1); });
  q.Push(MakeTask(owner, 0, 1), &hls, &m);
  const int after_push = pings.load();
  ASSERT_NE(q.Select(hls, Processor::kCpu, m), nullptr);
  EXPECT_EQ(pings.load(), after_push + 1);  // removal broadcast pinged
  q.SetAvailabilityListener(Processor::kGpu, nullptr);
  q.Close();
  for (QueryTask* t : q.DrainRemaining()) (void)t;
}

}  // namespace
}  // namespace saber
