#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "core/operator.h"
#include "runtime/blocking_queue.h"
#include "runtime/byte_buffer.h"
#include "runtime/clock.h"

/// \file sim_device.h
/// The simulated GPGPU device — our substitute for the paper's NVIDIA Quadro
/// K5200 + OpenCL stack (see DESIGN.md, "Hardware substitution"). It
/// reproduces the three properties SABER's design depends on:
///
///  1. *Throughput-oriented execution*: a task's kernel is dispatched as
///     work groups onto a pool of executor threads (the "SMs"), so one task
///     runs on several threads at once, whereas a CPU worker runs one task
///     on one core. The kernels run the queries' compiled batch operators
///     (gpu_operators.h).
///  2. *PCIe-bounded data movement*: every movein/moveout transfer is paced
///     to `dma_latency + bytes / pcie_bandwidth` of wall-clock time
///     (defaults: 10 us latency [43], 8 GB/s effective bandwidth, §2.2).
///  3. *Five-stage pipelining* (§5.2, Fig. 6): dedicated threads run
///     copyin → movein → execute → moveout → copyout with per-stage FIFOs
///     and a fixed set of in-flight job slots, so DMA transfers of task i±1
///     overlap the kernel execution of task i.
///
/// Determinism note: work groups may be executed by any executor thread, but
/// every kernel writes to per-group outputs that are concatenated in group
/// order, and a group boundary never splits a window fragment — so device
/// output is bit-identical to the CPU operators, which the property tests
/// rely on. The paper's intra-fragment reduction tree is represented by the
/// cost model rather than by reordered floating-point arithmetic.

namespace saber {

struct SimDeviceOptions {
  /// Number of executor threads standing in for streaming multiprocessors.
  int num_executors = 4;
  /// Effective PCIe bandwidth per direction, bytes/second (§2.2: PCIe 3.0
  /// x16 ~ 8 GB/s).
  double pcie_bandwidth = 8.0 * 1024 * 1024 * 1024;
  /// DMA initiation latency per transfer ([43]: ~10 us).
  int64_t dma_latency_nanos = 10 * 1000;
  /// Fixed kernel launch overhead.
  int64_t launch_overhead_nanos = 5 * 1000;
  /// In-flight job slots (Fig. 6 shows 4 rotating buffers).
  size_t pipeline_depth = 4;
  /// Disable wall-clock pacing (unit tests).
  bool pace_transfers = true;
};

/// One query task travelling through the pipeline. Slots are pooled and
/// recycled (§5.1 object pooling); buffers keep their capacity across uses.
struct GpuJob {
  int64_t task_id = 0;

  // Filled at submit time: up to two spans per input, its batch and its
  // window history (non-empty for joins; §4.1: the free pointer keeps it
  // alive on the host). copyin lays the spans out back to back in
  // device_in.
  SpanPair host_input[4];
  int num_spans = 1;
  /// Device-side computation: reads device_in, writes device_out and
  /// metadata. Runs on the execute stage; may use SimDevice::ParallelFor.
  std::function<void(class SimDevice&, GpuJob&)> kernel;
  /// Where to deliver results (host heap).
  TaskResult* result = nullptr;
  std::function<void(GpuJob*)> on_complete;

  // Pipeline buffers (capacities persist across reuse).
  ByteBuffer pinned_in;    // host pinned memory (copyin target)
  ByteBuffer device_in;    // device global memory (movein target)
  ByteBuffer device_out;   // kernel output payload: [complete][partials]
  ByteBuffer pinned_out;   // moveout target

  // Kernel-produced metadata describing device_out.
  size_t complete_bytes = 0;
  size_t partials_bytes = 0;
  std::vector<PaneEntry> panes;
  int64_t axis_p = 0, axis_q = 0;

  /// Set by an injected failure mode (submit rejection, kernel fault,
  /// completion timeout): the job skips the remaining pipeline work and
  /// reaches copyout with no valid payload; copyout marks the TaskResult
  /// device_failed instead of populating it.
  bool failed = false;

  void ResetForSubmit() {
    failed = false;
    pinned_in.Clear();
    device_in.Clear();
    device_out.Clear();
    pinned_out.Clear();
    panes.clear();
    complete_bytes = partials_bytes = 0;
    axis_p = axis_q = 0;
    num_spans = 1;
    kernel = nullptr;
    result = nullptr;
    on_complete = nullptr;
  }
};

class SimDevice {
 public:
  explicit SimDevice(SimDeviceOptions options = {});
  ~SimDevice();

  SimDevice(const SimDevice&) = delete;
  SimDevice& operator=(const SimDevice&) = delete;

  const SimDeviceOptions& options() const { return options_; }

  /// Acquires a free job slot, blocking while all pipeline_depth slots are
  /// in flight (this is the pipeline's backpressure).
  GpuJob* AcquireJob();

  /// Enqueues a prepared job into the copyin stage. Under an armed
  /// gpu.submit_reject fault point the job bypasses the pipeline and is
  /// delivered straight to copyout as failed (on_complete still runs, with
  /// the TaskResult marked device_failed).
  void Submit(GpuJob* job);

  /// Returns a slot to the pool after on_complete has consumed the result.
  void ReleaseJob(GpuJob* job);

  /// Work-group dispatch for kernels: invokes fn(group, executor_thread) for
  /// group in [0, n), spread across the executor pool. Called from the
  /// execute stage only. Deterministic outputs require per-group slots.
  void ParallelFor(size_t n, const std::function<void(size_t, size_t)>& fn);

  struct Stats {
    /// Jobs that completed without a failure.
    std::atomic<int64_t> jobs{0};
    std::atomic<int64_t> bytes_in{0};
    std::atomic<int64_t> bytes_out{0};
  };
  const Stats& stats() const { return stats_; }

  /// Modeled transfer duration for `bytes` over the PCIe bus.
  int64_t TransferNanos(size_t bytes) const {
    return options_.dma_latency_nanos +
           static_cast<int64_t>(static_cast<double>(bytes) /
                                options_.pcie_bandwidth * 1e9);
  }

 private:
  void CopyinLoop();
  void MoveinLoop();
  void ExecuteLoop();
  void MoveoutLoop();
  void CopyoutLoop();
  void ExecutorLoop(size_t thread_index);

  SimDeviceOptions options_;
  Stats stats_;

  // Job slot pool.
  std::vector<std::unique_ptr<GpuJob>> slots_;
  BlockingQueue<GpuJob*> free_slots_;

  // Stage FIFOs (§5.2: per-stage sequential execution across tasks).
  BlockingQueue<GpuJob*> to_copyin_;
  BlockingQueue<GpuJob*> to_movein_;
  BlockingQueue<GpuJob*> to_execute_;
  BlockingQueue<GpuJob*> to_moveout_;
  BlockingQueue<GpuJob*> to_copyout_;

  // Work-group dispatch state. The Launch object is shared-ptr owned so a
  // straggling executor that observed the launch late can still safely read
  // the (exhausted) index counter after the dispatch thread has moved on.
  struct Launch {
    const std::function<void(size_t, size_t)>* fn = nullptr;
    std::atomic<size_t> next{0};
    size_t n = 0;
    std::atomic<size_t> done{0};
  };
  std::mutex launch_mu_;
  std::condition_variable launch_cv_;
  std::shared_ptr<Launch> launch_;  // guarded by launch_mu_ for handoff
  std::atomic<bool> stopping_{false};

  std::vector<std::thread> stage_threads_;
  std::vector<std::thread> executors_;
};

}  // namespace saber
