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
  // With pipeline_depth slots in flight, a job enters the execute stage
  // while the job before it is still moving out (Fig. 6). Each job records
  // the interval from its kernel launch to its completion; the assertion is
  // on the order of those recorded stage events, not on a wall-clock ratio.
  // The spin-paced stage threads (movein, execute, moveout) only run side
  // by side with enough hardware threads; with fewer they serialize.
  if (std::thread::hardware_concurrency() < 4) {
    GTEST_SKIP() << "pipeline overlap needs >= 4 hardware threads, have "
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

  struct Run {
    double ms = 0;
    int overlaps = 0;  // jobs launched before their predecessor completed
  };
  auto run = [&](size_t depth) {
    SimDeviceOptions opts = o;
    opts.pipeline_depth = depth;
    SimDevice dev(opts);
    std::latch done(kJobs);
    std::vector<TaskResult> results(kJobs);
    std::vector<int64_t> launched(kJobs), completed(kJobs);
    const int64_t t0 = NowNanos();
    for (int i = 0; i < kJobs; ++i) {
      GpuJob* job = dev.AcquireJob();  // blocks at pipeline_depth in flight
      job->num_spans = 1;
      job->host_input[0] = SpanPair{data.data(), data.size(), nullptr, 0};
      job->result = &results[i];
      job->kernel = [&launched, i](SimDevice&, GpuJob& j) {
        launched[i] = NowNanos();
        // Echo the input, so that a paced 1 MB moveout follows the kernel.
        j.device_out.Append(j.device_in.data(), j.device_in.size());
        j.complete_bytes = j.device_in.size();
      };
      job->on_complete = [&, i](GpuJob* j) {
        completed[i] = NowNanos();
        dev.ReleaseJob(j);
        done.count_down();
      };
      dev.Submit(job);
    }
    done.wait();
    Run r;
    r.ms = (NowNanos() - t0) / 1e6;
    for (int i = 1; i < kJobs; ++i) r.overlaps += launched[i] < completed[i - 1];
    return r;
  };

  // One slot: a job is acquired only after its predecessor completed.
  EXPECT_EQ(run(1).overlaps, 0);
  const Run pipelined = run(4);
  // Four slots: job i+1 moves in while job i executes, so it launches as
  // soon as job i leaves the execute stage, while job i still has its
  // paced moveout and its copyout ahead. A stall that long on every one of
  // the 15 hand-offs would mean the stages do not run concurrently.
  EXPECT_GT(pipelined.overlaps, 0);
  // Pacing must still be enforced: no faster than the single-stage floor.
  EXPECT_GE(pipelined.ms, kJobs * 0.45);
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
