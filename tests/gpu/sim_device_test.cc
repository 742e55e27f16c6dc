#include "gpu/sim_device.h"

#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <numeric>
#include <thread>

namespace saber {
namespace {

SimDeviceOptions FastOptions() {
  SimDeviceOptions o;
  o.pace_transfers = false;
  o.num_executors = 4;
  return o;
}

TEST(SimDevice, ParallelForCoversAllIndicesExactlyOnce) {
  SimDevice dev(FastOptions());
  // ParallelFor must be driven from the execute stage; run it via a job.
  std::vector<std::atomic<int>> hits(1000);
  GpuJob* job = dev.AcquireJob();
  std::latch done(1);
  job->kernel = [&](SimDevice& d, GpuJob&) {
    d.ParallelFor(hits.size(), [&](size_t i, size_t) {
      hits[i].fetch_add(1);
    });
  };
  job->result = nullptr;
  job->num_spans = 0;
  job->on_complete = [&](GpuJob* j) {
    dev.ReleaseJob(j);
    done.count_down();
  };
  // Bypass result delivery: give the copyout stage a dummy result.
  TaskResult r;
  job->result = &r;
  dev.Submit(job);
  done.wait();
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(SimDevice, JobsCompleteInSubmissionOrder) {
  SimDevice dev(FastOptions());
  constexpr int kJobs = 32;
  std::vector<int> order;
  std::mutex mu;
  std::latch done(kJobs);
  std::vector<TaskResult> results(kJobs);
  for (int i = 0; i < kJobs; ++i) {
    GpuJob* job = dev.AcquireJob();
    job->task_id = i;
    job->num_spans = 0;
    job->result = &results[i];
    job->kernel = [](SimDevice&, GpuJob&) {};
    job->on_complete = [&, i](GpuJob* j) {
      {
        std::lock_guard<std::mutex> lock(mu);
        order.push_back(i);
      }
      dev.ReleaseJob(j);
      done.count_down();
    };
    dev.Submit(job);
  }
  done.wait();
  ASSERT_EQ(order.size(), static_cast<size_t>(kJobs));
  for (int i = 0; i < kJobs; ++i) EXPECT_EQ(order[i], i);  // per-stage FIFO
}

TEST(SimDevice, CopyinLinearizesWrappedSpans) {
  SimDevice dev(FastOptions());
  std::vector<uint8_t> a = {1, 2, 3, 4};
  std::vector<uint8_t> b = {5, 6};
  GpuJob* job = dev.AcquireJob();
  job->num_spans = 1;
  job->host_input[0] = SpanPair{a.data(), a.size(), b.data(), b.size()};
  TaskResult r;
  job->result = &r;
  std::latch done(1);
  std::vector<uint8_t> seen;
  job->kernel = [&](SimDevice&, GpuJob& j) {
    seen.assign(j.device_in.data(), j.device_in.data() + j.device_in.size());
  };
  job->on_complete = [&](GpuJob* j) {
    dev.ReleaseJob(j);
    done.count_down();
  };
  dev.Submit(job);
  done.wait();
  EXPECT_EQ(seen, (std::vector<uint8_t>{1, 2, 3, 4, 5, 6}));
}

TEST(SimDevice, TransferPacingEnforcesPcieModel) {
  SimDeviceOptions o;
  o.pace_transfers = true;
  o.pcie_bandwidth = 1.0 * 1024 * 1024 * 1024;  // 1 GB/s for a visible delay
  o.dma_latency_nanos = 0;
  o.launch_overhead_nanos = 0;
  SimDevice dev(o);
  const size_t bytes = 4 << 20;  // 4 MB => ~4 ms at 1 GB/s
  std::vector<uint8_t> data(bytes, 7);
  GpuJob* job = dev.AcquireJob();
  job->num_spans = 1;
  job->host_input[0] = SpanPair{data.data(), data.size(), nullptr, 0};
  TaskResult r;
  job->result = &r;
  std::latch done(1);
  job->kernel = [](SimDevice&, GpuJob&) {};
  job->on_complete = [&](GpuJob* j) {
    dev.ReleaseJob(j);
    done.count_down();
  };
  const int64_t t0 = NowNanos();
  dev.Submit(job);
  done.wait();
  const int64_t elapsed = NowNanos() - t0;
  EXPECT_GE(elapsed, dev.TransferNanos(bytes));  // at least the movein cost
}

TEST(SimDevice, PipelineOverlapsStages) {
  // With per-stage pacing, k jobs through a pipelined device should take
  // roughly max_stage * k, not sum_of_stages * k (Fig. 6). Absolute timings
  // depend on scheduler jitter and timer granularity, so calibrate against a
  // serial run (pipeline_depth = 1) on the same machine and assert the ratio.
  // Overlap requires the paced stage threads (movein, execute) plus the copy
  // threads to actually run in parallel; with fewer hardware threads the
  // spin-paced stages serialize and the ratio assertion below is meaningless.
  if (std::thread::hardware_concurrency() < 4) {
    GTEST_SKIP() << "pipeline-overlap timing needs >= 4 hardware threads, have "
                 << std::thread::hardware_concurrency();
  }
  SimDeviceOptions o;
  o.pace_transfers = true;
  o.pcie_bandwidth = 2.0 * 1024 * 1024 * 1024;
  o.dma_latency_nanos = 0;
  o.launch_overhead_nanos = 500 * 1000;  // 0.5 ms kernel
  const size_t bytes = 1 << 20;          // 1 MB => 0.5 ms per direction
  std::vector<uint8_t> data(bytes, 1);
  constexpr int kJobs = 16;

  auto run = [&](size_t depth) {
    SimDeviceOptions opts = o;
    opts.pipeline_depth = depth;
    SimDevice dev(opts);
    std::latch done(kJobs);
    std::vector<TaskResult> results(kJobs);
    const int64_t t0 = NowNanos();
    for (int i = 0; i < kJobs; ++i) {
      GpuJob* job = dev.AcquireJob();  // blocks at pipeline_depth in flight
      job->num_spans = 1;
      job->host_input[0] = SpanPair{data.data(), data.size(), nullptr, 0};
      job->result = &results[i];
      job->kernel = [](SimDevice&, GpuJob&) {};
      job->on_complete = [&](GpuJob* j) {
        dev.ReleaseJob(j);
        done.count_down();
      };
      dev.Submit(job);
    }
    done.wait();
    return (NowNanos() - t0) / 1e6;
  };

  const double serial_ms = run(1);     // movein+execute+moveout per job
  const double pipelined_ms = run(4);  // ~max-stage per job after ramp-up
  // Ideal ratio is ~1/3 (three paced stages of equal cost); require a clear
  // win while leaving generous slack for machine noise.
  EXPECT_LT(pipelined_ms, 0.75 * serial_ms)
      << "serial=" << serial_ms << "ms pipelined=" << pipelined_ms << "ms";
  // Pacing must still be enforced: no faster than the single-stage floor.
  EXPECT_GE(pipelined_ms, kJobs * 0.45);
}

TEST(SimDevice, StatsAreRecorded) {
  SimDevice dev(FastOptions());
  std::vector<uint8_t> data(1024, 3);
  GpuJob* job = dev.AcquireJob();
  job->num_spans = 1;
  job->host_input[0] = SpanPair{data.data(), data.size(), nullptr, 0};
  TaskResult r;
  job->result = &r;
  std::latch done(1);
  job->kernel = [](SimDevice&, GpuJob& j) {
    j.device_out.Resize(100);
    j.complete_bytes = 100;
  };
  job->on_complete = [&](GpuJob* j) {
    dev.ReleaseJob(j);
    done.count_down();
  };
  dev.Submit(job);
  done.wait();
  EXPECT_EQ(dev.stats().jobs.load(), 1);
  EXPECT_EQ(dev.stats().bytes_in.load(), 1024);
  EXPECT_EQ(dev.stats().bytes_out.load(), 100);
  EXPECT_EQ(r.complete.size(), 100u);
}

}  // namespace
}  // namespace saber
