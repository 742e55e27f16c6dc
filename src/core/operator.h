#pragma once

#include <memory>
#include <vector>

#include "core/query.h"
#include "relational/tuple_ref.h"
#include "runtime/byte_buffer.h"
#include "window/window_math.h"

/// \file operator.h
/// The hybrid processing model of §3, expressed as code:
///
///  - A *query task* v = (f, B) bundles the query's operator function with a
///    fixed-size stream batch (TaskContext below carries B plus the window
///    bookkeeping the task needs).
///  - The *batch operator function* f_b runs in the parallel execution stage
///    (Operator::ProcessBatch) on either a CPU core or the simulated GPGPU;
///    it produces *window fragment results* (TaskResult): finalized rows for
///    work that is complete within the batch, plus partial per-pane
///    aggregates for windows that span batches.
///  - The *assembly operator function* f_a runs in the result stage
///    (Operator::Assemble), strictly in query-task order, merging fragment
///    results into window results and appending them to the output stream.

namespace saber {

/// A possibly two-segment view of contiguous ring-buffer bytes (segment 2 is
/// used when the underlying circular buffer wraps).
struct SpanPair {
  const uint8_t* seg1 = nullptr;
  size_t len1 = 0;
  const uint8_t* seg2 = nullptr;
  size_t len2 = 0;

  size_t total() const { return len1 + len2; }
  bool contiguous() const { return len2 == 0; }

  /// Pointer to the tuple at byte offset `off` (must not straddle segments —
  /// guaranteed when offsets are multiples of the tuple size and segment
  /// lengths are too).
  const uint8_t* at(size_t off) const {
    return off < len1 ? seg1 + off : seg2 + (off - len1);
  }
};

/// One input stream's slice of a query task.
struct StreamBatch {
  SpanPair data;            // the stream batch itself
  int64_t first_index = 0;  // global tuple index of the first tuple
  int64_t first_ts = 0;     // timestamp of the first tuple
  int64_t last_ts = 0;      // timestamp of the last tuple
  int64_t prev_last_ts = -1;  // last timestamp of the previous batch (-1: none)

  /// For joins: tuples preceding the batch that are still inside some window
  /// of the opposite stream (§4.1 free pointer keeps them alive).
  SpanPair history;
  int64_t history_first_index = 0;

  size_t tuple_size = 0;
  size_t num_tuples() const { return data.total() / tuple_size; }
  const uint8_t* tuple(size_t i) const { return data.at(i * tuple_size); }

  size_t history_tuples() const { return history.total() / tuple_size; }
  const uint8_t* history_tuple(size_t i) const {
    return history.at(i * tuple_size);
  }

  /// Axis range [P, Q) this batch is responsible for (window_math.h). For
  /// time-based windows Q is the batch's *last* timestamp, exclusive: tuples
  /// are ordered by timestamp (§2.4), so observing ts = T only proves that no
  /// future tuple has ts < T — equal timestamps may still cross the batch
  /// boundary. Windows therefore close only once the watermark (max Q seen)
  /// passes their end.
  int64_t AxisP(const WindowDefinition& w) const {
    return w.time_based() ? std::max<int64_t>(prev_last_ts, 0) : first_index;
  }
  int64_t AxisQ(const WindowDefinition& w) const {
    return w.time_based() ? last_ts
                          : first_index + static_cast<int64_t>(num_tuples());
  }
  /// Axis coordinate of tuple i.
  int64_t AxisOf(const WindowDefinition& w, size_t i, int64_t ts) const {
    return w.time_based() ? ts : first_index + static_cast<int64_t>(i);
  }
};

/// A window-fragment partial: serialized pane data located inside
/// TaskResult::partials.
struct PaneEntry {
  int64_t pane_index;
  uint32_t offset;
  uint32_t length;
};

/// Output of the batch operator function for one query task.
struct TaskResult {
  int64_t task_id = 0;

  /// Finalized output rows (selection/projection/join results) in arrival
  /// order; the assembly stage forwards them unchanged (§4.3 "for many
  /// operators assembly is concatenation").
  ByteBuffer complete;

  /// Serialized pane partials for aggregations, ordered by pane index.
  ByteBuffer partials;
  std::vector<PaneEntry> panes;

  /// Axis range the batch covered (input 0), for window-close tracking.
  int64_t axis_p = 0;
  int64_t axis_q = 0;

  /// Per-input byte positions that may be released after this task's results
  /// are collected (the *free pointer* of §4.1).
  int64_t free_pos[2] = {0, 0};

  int64_t input_bytes = 0;
  int64_t dispatched_nanos = 0;  // for end-to-end latency accounting

  /// The device failed the task (injected or real): no payload fields are
  /// valid, and the GPGPU worker requeues the task instead of assembling.
  bool device_failed = false;

  void Reset() {
    complete.Clear();
    partials.Clear();
    panes.clear();
    axis_p = axis_q = 0;
    free_pos[0] = free_pos[1] = 0;
    input_bytes = 0;
    dispatched_nanos = 0;
    device_failed = false;
  }
};

/// The stream batch bundle B of a query task.
struct TaskContext {
  int64_t task_id = 0;
  const QueryDef* query = nullptr;
  StreamBatch input[2];
  int num_inputs = 1;
};

/// Mutable per-query state owned by the result stage and threaded through
/// Assemble calls in task order (pane store, running aggregates, next window
/// to emit). Implementations are operator-specific.
class AssemblyState {
 public:
  virtual ~AssemblyState() = default;
};

/// A batch operator function plus its assembly counterpart. Implementations:
/// cpu/cpu_operators.h (one task per CPU core) and gpu/gpu_operators.h
/// (the same batch operator, run in work groups on the simulated device).
class Operator {
 public:
  virtual ~Operator() = default;

  /// Executes the batch operator function f_b for one query task. Must be
  /// thread-safe (const); all mutable state lives in `out`.
  virtual void ProcessBatch(const TaskContext& ctx, TaskResult* out) const = 0;

  /// Executes the assembly operator function f_a. Called exactly once per
  /// task, in strictly increasing task-id order per query (the result stage
  /// guarantees this, §4.3). Appends finalized output rows to `output`.
  virtual void Assemble(const TaskResult& result, AssemblyState* state,
                        ByteBuffer* output) const = 0;

  /// Creates the per-query assembly state consumed by Assemble.
  virtual std::unique_ptr<AssemblyState> MakeAssemblyState() const = 0;

  const QueryDef& query() const { return *query_; }

 protected:
  explicit Operator(const QueryDef* query) : query_(query) {}
  const QueryDef* query_;
};

}  // namespace saber
