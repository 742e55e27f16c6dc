#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

/// \file trace.h
/// Sampled task-path tracing: a per-task span records the six stages a query
/// task travels — insert → dispatch → queue-wait → execute (CPU worker or
/// GPGPU pipeline) → assembly → sink — as wall-clock timestamps stamped in
/// the engine's own hot path, then published to a bounded lock-free ring on
/// completion. `EngineOptions::trace_sample_rate` arms it; at the default 0
/// the engine does not even construct the ring, so the per-task cost is one
/// pointer test (the "one relaxed load" contract — see engine.cc).
///
/// Memory is bounded by construction: sampled spans live *inside* the pooled
/// QueryTask until completion (no allocation per span), and the ring holds a
/// fixed number of completed spans — an overrun overwrites the oldest, it
/// never grows. Slots are seqlock-versioned from the push ticket: the writer
/// of lap L claims its slot by moving the version to 2L+1, copies the span
/// and publishes 2L+2; Drain() accepts ticket i's slot only at exactly its
/// lap's 2L+2, stable across the copy, and discards anything caught
/// mid-write or already overwritten, so a dump is race-free without ever
/// blocking a worker. A writer that finds its slot still being copied by an
/// older lap (an overrun of the whole ring within one copy) drops its span.
///
/// Dumps render as Chrome `trace_event` JSON (load via chrome://tracing or
/// https://ui.perfetto.dev): one "X" (complete) event per stage, rows keyed
/// by query slot, with task id / backend / bytes in args.

namespace saber::obs {

/// One completed task journey. Timestamps are NowNanos() readings; a stage's
/// duration is the delta to the previous timestamp. `select_nanos` may be
/// re-stamped by a GPGPU-failover requeue, in which case queue-wait covers
/// the final queueing and execute the final (successful) execution.
struct TaskSpan {
  int64_t task_id = 0;
  int32_t query_index = 0;
  /// Executing backend: 0 = CPU worker, 1 = GPGPU.
  int32_t backend = 0;
  int64_t bytes = 0;
  int64_t insert_nanos = 0;    ///< newest insert feeding the task's batch
  int64_t create_nanos = 0;    ///< dispatcher cut the task
  int64_t queued_nanos = 0;    ///< pushed to the system-wide task queue
  int64_t select_nanos = 0;    ///< scheduler handed it to a worker
  int64_t exec_end_nanos = 0;  ///< operator (or device pipeline) finished
  int64_t sink_begin_nanos = 0;  ///< in-order turn reached, output ready
  int64_t done_nanos = 0;        ///< sink returned
};

class TraceRing {
 public:
  /// `sample_rate` in [0, 1]; `capacity` completed spans are retained.
  TraceRing(double sample_rate, size_t capacity);

  /// Sampling decision for one task (dispatcher threads). Thread-safe; a
  /// per-thread xorshift stream keeps it to a few ALU ops, no atomics.
  bool Sample() {
    if (threshold_ == 0) return false;
    thread_local uint64_t state = 0;
    if (state == 0) {
      state = 0x9e3779b97f4a7c15ULL ^
              reinterpret_cast<uint64_t>(static_cast<void*>(&state));
    }
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return static_cast<uint32_t>(state >> 32) < threshold_;
  }

  /// Publishes a completed span (engine workers; lock-free).
  void Push(const TaskSpan& span);

  /// Copies the retained spans, oldest first. Safe concurrent with Push;
  /// spans mid-overwrite are skipped (see the file comment).
  std::vector<TaskSpan> Drain() const;

  size_t capacity() const { return slots_.size(); }
  /// Spans pushed over the ring's lifetime (>= capacity ⇒ the oldest were
  /// overwritten; surfaced so a dump never silently reads as complete).
  int64_t total_pushed() const {
    return static_cast<int64_t>(next_.load(std::memory_order_relaxed));
  }
  double sample_rate() const { return rate_; }

 private:
  struct Slot {
    static constexpr size_t kWords = (sizeof(TaskSpan) + 7) / 8;
    std::atomic<uint64_t> version{0};
    /// Span payload as relaxed-atomic words: a reader racing a writer (or
    /// two writers lapping onto the same slot) then performs defined,
    /// untorn word accesses — no C++ data race — while the seqlock version
    /// validates whole-record consistency. The word copies stay plain
    /// MOV instructions; only the version carries ordering.
    std::atomic<uint64_t> words[kWords] = {};
  };

  const double rate_;
  const uint32_t threshold_;  // sample iff rng32 < threshold_
  std::vector<Slot> slots_;
  std::atomic<uint64_t> next_{0};
};

/// Renders spans as a Chrome trace_event JSON document (object form with a
/// "traceEvents" array; `meta` key/values land in the top-level object as
/// string fields).
std::string RenderChromeTrace(
    const std::vector<TaskSpan>& spans,
    const std::vector<std::pair<std::string, std::string>>& meta = {});

/// Drains `ring` and writes the Chrome trace JSON to `path`. Returns false
/// when the file could not be written. A null ring writes an empty trace.
bool WriteChromeTraceFile(const TraceRing* ring, const std::string& path);

}  // namespace saber::obs
