#pragma once

#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include "core/operator.h"

/// \file udf_operator.h
/// Execution of user-defined window operator functions (window_udf.h) under
/// the hybrid model. The batch operator function is *fragment collection*:
/// it slices the stream batch into panes and ships each pane's tuples as a
/// window-fragment result. The assembly operator function reassembles
/// complete windows from the collected panes — strictly in task order, like
/// every assembly function (§4.3) — and evaluates the UDF per window.
///
/// TaskResult layout for UDF tasks:
///   partials = [UdfAxisHeader][pane tuple bytes ...]
///   panes[k] = PaneEntry{EncodeUdfPane(input, pane), offset, length}
/// The header carries the per-input axis coverage; a join-style task covers
/// different axis spans on its two inputs, and a window closes only once
/// *every* input's watermark passed its end.

namespace saber {

/// Per-input axis coverage of one UDF task (TaskResult::axis_* only spans
/// input 0). Written at the start of TaskResult::partials.
struct UdfAxisHeader {
  int64_t axis_p[2] = {0, 0};
  int64_t axis_q[2] = {0, 0};
};

/// PaneEntry::pane_index encoding for UDF results: the input stream index
/// rides in the low bit (pane indices are non-negative).
constexpr int64_t EncodeUdfPane(int input, int64_t pane) {
  return pane * 2 + input;
}
constexpr int UdfPaneInput(int64_t encoded) {
  return static_cast<int>(encoded & 1);
}
constexpr int64_t UdfPaneIndex(int64_t encoded) { return encoded / 2; }

/// Assembly state for UDF queries: per-input pane stores, per-input
/// watermarks, and the next window index to evaluate. Shared by the CPU and
/// GPGPU back ends (§5.4: the result logic is the same for both).
class UdfAssembly : public AssemblyState {
 public:
  explicit UdfAssembly(const QueryDef& q);

  /// Ingests one task's collected panes (in task order) and appends the
  /// result rows of every window that became complete to `output`.
  void Ingest(const TaskResult& result, ByteBuffer* output);

  int64_t next_window() const { return next_window_; }

 private:
  void EmitReadyWindows(ByteBuffer* output);
  void EmitWindow(int64_t j, ByteBuffer* output);

  const QueryDef& q_;
  int n_;
  std::map<int64_t, std::vector<uint8_t>> store_[2];  // pane -> tuple bytes
  int64_t watermark_[2] = {0, 0};
  int64_t next_window_ = 0;
  ByteBuffer window_scratch_[2];
};

/// Creates the batch operator for a UDF query: fragment collection. The
/// simulated GPGPU runs it too, as one work group per task
/// (gpu_operators.h).
std::unique_ptr<Operator> MakeCpuUdfOperator(const QueryDef* query);

}  // namespace saber
