#include "gpu/sim_device.h"

#include <cstring>

#include "fault/fault_registry.h"

namespace saber {

SimDevice::SimDevice(SimDeviceOptions options)
    : options_(options),
      free_slots_(0),
      to_copyin_(0),
      to_movein_(0),
      to_execute_(0),
      to_moveout_(0),
      to_copyout_(0) {
  SABER_CHECK(options_.pipeline_depth >= 1);
  SABER_CHECK(options_.num_executors >= 1);
  for (size_t i = 0; i < options_.pipeline_depth; ++i) {
    slots_.push_back(std::make_unique<GpuJob>());
    free_slots_.Push(slots_.back().get());
  }
  // Five dedicated stage threads (§5.2): two CPU-side copy threads, two DMA
  // threads, one kernel-dispatch thread.
  stage_threads_.emplace_back([this] { CopyinLoop(); });
  stage_threads_.emplace_back([this] { MoveinLoop(); });
  stage_threads_.emplace_back([this] { ExecuteLoop(); });
  stage_threads_.emplace_back([this] { MoveoutLoop(); });
  stage_threads_.emplace_back([this] { CopyoutLoop(); });
  // Executor pool ("SMs") serving ParallelFor work groups.
  for (int i = 0; i < options_.num_executors; ++i) {
    executors_.emplace_back([this, i] { ExecutorLoop(static_cast<size_t>(i)); });
  }
}

SimDevice::~SimDevice() {
  stopping_.store(true);
  to_copyin_.Close();
  to_movein_.Close();
  to_execute_.Close();
  to_moveout_.Close();
  to_copyout_.Close();
  free_slots_.Close();
  {
    std::lock_guard<std::mutex> lock(launch_mu_);
    launch_cv_.notify_all();
  }
  for (auto& t : stage_threads_) t.join();
  for (auto& t : executors_) t.join();
}

GpuJob* SimDevice::AcquireJob() {
  auto slot = free_slots_.Pop();
  SABER_CHECK(slot.has_value());
  (*slot)->ResetForSubmit();
  return *slot;
}

void SimDevice::Submit(GpuJob* job) {
  if (SABER_FAULT_POINT("gpu.submit_reject")) {
    // The device refuses the job at the submission boundary: skip the
    // pipeline entirely and deliver the failure through the normal copyout
    // completion path, so callers need no second error channel.
    job->failed = true;
    to_copyout_.Push(job);
    return;
  }
  to_copyin_.Push(job);
}

void SimDevice::ReleaseJob(GpuJob* job) { free_slots_.Push(job); }

// --------------------------------------------------------------------------
// Stage 1 — copyin: host heap (circular input buffers) -> pinned memory.
// Linearizes possibly-wrapped spans; runs on a CPU-side thread.
// --------------------------------------------------------------------------
void SimDevice::CopyinLoop() {
  for (;;) {
    auto job = to_copyin_.Pop();
    if (!job.has_value()) return;
    GpuJob& j = **job;
    size_t total = 0;
    for (int i = 0; i < j.num_spans; ++i) total += j.host_input[i].total();
    j.pinned_in.Resize(total);
    size_t off = 0;
    for (int i = 0; i < j.num_spans; ++i) {
      const SpanPair& sp = j.host_input[i];
      if (sp.len1 > 0) std::memcpy(j.pinned_in.data() + off, sp.seg1, sp.len1);
      off += sp.len1;
      if (sp.len2 > 0) {
        std::memcpy(j.pinned_in.data() + off, sp.seg2, sp.len2);
        off += sp.len2;
      }
    }
    to_movein_.Push(*job);
  }
}

// --------------------------------------------------------------------------
// Stage 2 — movein: pinned memory -> device global memory over the modeled
// PCIe bus. The DMA thread paces each transfer to its modeled duration, so
// sustained throughput is capped at pcie_bandwidth per direction.
// --------------------------------------------------------------------------
void SimDevice::MoveinLoop() {
  for (;;) {
    auto job = to_movein_.Pop();
    if (!job.has_value()) return;
    GpuJob& j = **job;
    const int64_t t0 = NowNanos();
    j.device_in.Resize(j.pinned_in.size());
    if (j.pinned_in.size() > 0) {
      std::memcpy(j.device_in.data(), j.pinned_in.data(), j.pinned_in.size());
    }
    if (options_.pace_transfers) {
      PaceNanos(t0, TransferNanos(j.pinned_in.size()));
    }
    stats_.bytes_in.fetch_add(static_cast<int64_t>(j.pinned_in.size()),
                              std::memory_order_relaxed);
    to_execute_.Push(*job);
  }
}

// --------------------------------------------------------------------------
// Stage 3 — execute: launch the kernel over device memory. The dispatch
// thread models launch overhead and coordinates work groups on the executor
// pool via ParallelFor.
// --------------------------------------------------------------------------
void SimDevice::ExecuteLoop() {
  for (;;) {
    auto job = to_execute_.Pop();
    if (!job.has_value()) return;
    GpuJob& j = **job;
    const int64_t t0 = NowNanos();
    if (SABER_FAULT_POINT("gpu.kernel_fault")) {
      // Kernel dies mid-execution: no output metadata is produced; the job
      // rides the remaining stages in the failed state.
      j.failed = true;
    } else {
      j.kernel(*this, j);
    }
    if (options_.pace_transfers) {
      PaceNanos(t0, options_.launch_overhead_nanos);
    }
    to_moveout_.Push(*job);
  }
}

// --------------------------------------------------------------------------
// Stage 4 — moveout: device global memory -> pinned memory (paced DMA).
// --------------------------------------------------------------------------
void SimDevice::MoveoutLoop() {
  for (;;) {
    auto job = to_moveout_.Pop();
    if (!job.has_value()) return;
    GpuJob& j = **job;
    if (SABER_FAULT_POINT("gpu.completion_timeout")) {
      // The result transfer times out: the device gives up on moving the
      // payload back and surfaces the job as failed.
      j.failed = true;
    }
    if (j.failed) {
      to_copyout_.Push(*job);
      continue;
    }
    const int64_t t0 = NowNanos();
    const size_t payload = j.complete_bytes + j.partials_bytes;
    j.pinned_out.Resize(payload);
    if (payload > 0) {
      std::memcpy(j.pinned_out.data(), j.device_out.data(), payload);
    }
    if (options_.pace_transfers) {
      PaceNanos(t0, TransferNanos(payload + j.panes.size() * sizeof(PaneEntry)));
    }
    stats_.bytes_out.fetch_add(static_cast<int64_t>(payload),
                               std::memory_order_relaxed);
    to_copyout_.Push(*job);
  }
}

// --------------------------------------------------------------------------
// Stage 5 — copyout: pinned memory -> host heap TaskResult, then completion.
// --------------------------------------------------------------------------
void SimDevice::CopyoutLoop() {
  for (;;) {
    auto job = to_copyout_.Pop();
    if (!job.has_value()) return;
    GpuJob& j = **job;
    TaskResult* r = j.result;
    if (j.failed) {
      // No payload to copy out; tell the submitter the device failed the
      // task so it can retry elsewhere.
      if (r != nullptr) r->device_failed = true;
    } else {
      r->complete.Clear();
      r->partials.Clear();
      r->complete.Append(j.pinned_out.data(), j.complete_bytes);
      r->partials.Append(j.pinned_out.data() + j.complete_bytes,
                         j.partials_bytes);
      r->panes = j.panes;
      r->axis_p = j.axis_p;
      r->axis_q = j.axis_q;
      stats_.jobs.fetch_add(1, std::memory_order_relaxed);
    }
    // Move the callback out before invoking it: on_complete conventionally
    // calls ReleaseJob, after which the slot can be re-acquired and its
    // members (including on_complete itself) overwritten by another thread
    // while this invocation is still unwinding through the member
    // std::function — a use-after-recycle race.
    std::function<void(GpuJob*)> complete = std::move(j.on_complete);
    j.on_complete = nullptr;
    if (complete) complete(*job);
  }
}

// --------------------------------------------------------------------------
// Work-group dispatch.
// --------------------------------------------------------------------------
void SimDevice::ParallelFor(size_t n,
                            const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) return;
  if (n == 1) {
    fn(0, 0);
    return;
  }
  auto launch = std::make_shared<Launch>();
  launch->fn = &fn;
  launch->n = n;
  {
    std::lock_guard<std::mutex> lock(launch_mu_);
    launch_ = launch;
    launch_cv_.notify_all();
  }
  // The dispatch thread participates as executor index options_.num_executors.
  const size_t self = static_cast<size_t>(options_.num_executors);
  for (;;) {
    const size_t i = launch->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) break;
    fn(i, self);
    launch->done.fetch_add(1, std::memory_order_acq_rel);
  }
  while (launch->done.load(std::memory_order_acquire) < n) {
    // Groups are coarse (thousands of tuples); a brief spin is fine.
  }
  {
    std::lock_guard<std::mutex> lock(launch_mu_);
    launch_.reset();
  }
}

void SimDevice::ExecutorLoop(size_t thread_index) {
  for (;;) {
    std::shared_ptr<Launch> launch;
    {
      std::unique_lock<std::mutex> lock(launch_mu_);
      launch_cv_.wait(lock, [&] {
        return stopping_.load() ||
               (launch_ != nullptr &&
                launch_->next.load(std::memory_order_relaxed) < launch_->n);
      });
      if (stopping_.load()) return;
      launch = launch_;
    }
    if (launch == nullptr) continue;
    for (;;) {
      const size_t i = launch->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= launch->n) break;
      (*launch->fn)(i, thread_index);
      launch->done.fetch_add(1, std::memory_order_acq_rel);
    }
  }
}

}  // namespace saber
