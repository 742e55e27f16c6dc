#pragma once

#include <cstdint>

/// \file task.h
/// The query task of §3: "the operator graph is bundled with a batch of
/// stream data to form a query task that can be scheduled on a heterogeneous
/// processor". A QueryTask holds only positions into the query's circular
/// input buffers (§4.1: start pointer, end pointer, free pointer); the
/// worker materializes spans from them at execution time.

namespace saber {

/// A heterogeneous processor (§1: "by processor we refer to either an
/// individual CPU core or an entire GPGPU").
enum class Processor : uint8_t { kCpu = 0, kGpu = 1 };
inline constexpr int kNumProcessors = 2;

inline const char* ProcessorName(Processor p) {
  return p == Processor::kCpu ? "CPU" : "GPGPU";
}

/// Bit set over processors. The scheduling stage uses it for targeted
/// wakeups: when a task enters the queue, only workers whose processor could
/// plausibly select it are notified (see Scheduler::EligibleProcessors).
using ProcessorMask = uint8_t;

inline constexpr ProcessorMask ProcessorBit(Processor p) {
  return static_cast<ProcessorMask>(1u << static_cast<int>(p));
}
inline constexpr ProcessorMask kAllProcessors =
    static_cast<ProcessorMask>((1u << kNumProcessors) - 1);
inline constexpr bool MaskHas(ProcessorMask m, Processor p) {
  return (m & ProcessorBit(p)) != 0;
}

struct QueryTask {
  /// Dense per-query identifier assigned at dispatch; the result stage uses
  /// it to reorder out-of-order completions (§4.1 "query task identifier").
  int64_t id = 0;
  /// Engine-wide query index (row of the throughput matrix).
  int query_index = 0;
  int num_inputs = 1;

  struct Input {
    int64_t start_pos = 0;  // batch start byte position in the circular buffer
    int64_t end_pos = 0;    // batch end (exclusive)
    int64_t first_index = 0;   // global tuple index of the first batch tuple
    int64_t first_ts = 0;      // timestamp of the first batch tuple
    int64_t last_ts = 0;       // timestamp of the last batch tuple
    int64_t prev_last_ts = -1; // last timestamp of the previous batch
    /// Closing bound (single-input tasks): the timestamp of the first tuple
    /// already buffered past the batch when it was cut, else last_ts. No
    /// later task holds an earlier timestamp, so every time window ending
    /// at or before it is closed once this task assembles.
    int64_t closing_ts = 0;
    /// Join window extent preceding the batch (equals start_pos for
    /// single-input queries).
    int64_t hist_start_pos = 0;
    int64_t hist_first_index = 0;
    /// Free pointer (§4.1): bytes before this position may be released once
    /// the task's results have been collected.
    int64_t free_pos = 0;
  } in[2];

  int64_t dispatched_nanos = 0;  // for end-to-end latency accounting
  int64_t total_bytes = 0;       // query task size contribution (Σ|b_i|)

  /// Processors allowed to execute this task. Dispatch creates every task
  /// with kAllProcessors; the GPGPU failover path narrows a failed task to
  /// the CPU before requeueing it, so the schedulers route the retry away
  /// from the failing device.
  ProcessorMask allowed = kAllProcessors;

  /// Sampled task-path tracing (obs/trace.h). Tasks are pooled, so dispatch
  /// must reset `traced` on every (re)initialization; the remaining stamps
  /// are only read when `traced` is set. Keeping the span inline bounds
  /// trace memory by the number of in-flight tasks — no per-span allocation.
  bool traced = false;
  /// Executing backend for the span: 0 = CPU worker, 1 = GPGPU.
  int32_t trace_backend = 0;
  int64_t trace_insert_nanos = 0;    // newest insert feeding the batch
  int64_t trace_queued_nanos = 0;    // pushed to the system-wide queue
  int64_t trace_select_nanos = 0;    // scheduler handed it to a worker
  int64_t trace_exec_end_nanos = 0;  // operator / device pipeline finished
};

}  // namespace saber
