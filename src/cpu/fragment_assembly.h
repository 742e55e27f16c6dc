#pragma once

#include <map>
#include <vector>

#include "core/operator.h"
#include "relational/hash_table.h"
#include "relational/two_stacks.h"

/// \file fragment_assembly.h
/// Assembly of window results from window-fragment results (§4.3, §5.3).
/// Aggregation fragments are *pane partials*: for every pane (window_math.h)
/// intersecting a batch, the batch operator emits the pane's partial
/// aggregate (plain AggStates, or a serialized group hash table). The
/// assembly state ingests pane partials strictly in task order, tracks the
/// axis watermark, and emits each window result exactly once — when the
/// watermark passes the window's end. Ungrouped sliding windows are computed
/// incrementally (§5.3) with two-stacks (two_stacks.h): each pane is merged
/// a constant number of times instead of panes_per_window times per
/// emission, and no pane is ever subtracted, so a large value cannot leave
/// a residue in later windows.
///
/// The same logic serves CPU and GPGPU tasks ("the result aggregation logic
/// is the same for both", §5.4): both run the same batch operator, so their
/// pane partials are identical.

namespace saber {

/// Serialized layouts inside TaskResult::partials:
///  - ungrouped pane partial: [int64 max_ts][AggState x num_aggs]
///  - grouped pane partial:   repeated GroupHashTable entries
///    [int64 ts][key bytes][AggState x num_aggs]
///  - session segment (kSession windows; PaneEntry::pane_index is a
///    task-local ordinal, not a grid index):
///      ungrouped: [int64 first_ts][int64 last_ts][AggState x num_aggs]
///      grouped:   [int64 first_ts][int64 last_ts] + repeated entries as
///                 above. The header is present even when every tuple of
///                 the segment was filtered out — the session's extent is
///                 defined by *raw* tuples, so an entry-less segment still
///                 extends (or separates) sessions.
struct PaneFormat {
  size_t num_aggs;
  size_t key_size;  // 0 if ungrouped (8 * num group keys otherwise)

  static PaneFormat For(const QueryDef& q) {
    return PaneFormat{q.aggregates.size(),
                      q.grouped() ? AlignUp(q.group_key_size(), 8) : 0};
  }
  bool grouped() const { return key_size > 0; }
  size_t ungrouped_bytes() const { return 8 + num_aggs * sizeof(AggState); }
  size_t grouped_entry_bytes() const {
    return 8 + key_size + num_aggs * sizeof(AggState);
  }
  /// Session-segment header: [first_ts][last_ts].
  static constexpr size_t kSessionHeaderBytes = 16;
  size_t session_ungrouped_bytes() const {
    return kSessionHeaderBytes + num_aggs * sizeof(AggState);
  }
};

/// Assembly state for aggregation queries.
class AggregationAssembly : public AssemblyState {
 public:
  explicit AggregationAssembly(const QueryDef& q);

  /// Ingests one task's pane partials (in task order) and appends every
  /// window result that became final to `output`.
  void Ingest(const TaskResult& result, ByteBuffer* output);

  int64_t next_window() const { return next_window_; }
  int64_t watermark() const { return watermark_; }

 private:
  struct PaneData {
    int64_t max_ts = 0;
    std::vector<AggState> aggs;        // ungrouped
    std::vector<uint8_t> group_bytes;  // grouped: serialized entries
    bool empty_of_groups() const { return group_bytes.empty(); }
  };

  void MergeEntry(int64_t pane, const uint8_t* data, size_t len);
  void EmitReadyWindows(ByteBuffer* output);
  void EmitWindow(int64_t j, ByteBuffer* output);
  void EmitUngroupedRow(int64_t ts, const AggState* aggs, ByteBuffer* output);
  void EmitGroupedWindow(int64_t j, ByteBuffer* output);
  /// Sorts and writes the groups currently in scratch_ (shared tail of the
  /// grouped pane and session emission paths). All rows carry `window_ts`.
  void EmitGroupedRows(int64_t window_ts, ByteBuffer* output);
  /// Session path: folds one segment partial into the open session,
  /// emitting the previous session first when the segment opens a new one
  /// (its first_ts is more than gap past the open session's last_ts).
  void MergeSessionSegment(const uint8_t* data, size_t len,
                           ByteBuffer* output);
  void EmitSession(ByteBuffer* output);
  void AdvanceStacks(int64_t j);

  const QueryDef& q_;
  const WindowDefinition& w_;
  PaneFormat fmt_;

  std::map<int64_t, PaneData> store_;  // live panes, keyed by pane index
  int64_t next_window_ = 0;            // next window index to consider
  int64_t watermark_ = 0;              // axis position covered so far

  // Two-stacks path ([50], two_stacks.h) for ungrouped aggregates:
  // amortized O(1) merges per pane instead of re-merging panes_per_window
  // panes per emitted window. Final panes are pushed lazily at emission
  // time (a pane may still receive contributions from the next task while
  // its end lies beyond the watermark).
  bool use_stacks_;
  TwoStacksAggregator stacks_;
  std::vector<AggState> stacks_query_;

  // Session path (w_.session()): there is no pane grid — segment partials
  // arrive in stream order and fold into a single open-session accumulator.
  // A session closes when a later segment opens more than gap past it, or
  // when the watermark passes last_ts + gap (window_math.h SessionClosed).
  // The final session of a stream never emits: no watermark can ever pass
  // it (mirrors reference.cc).
  bool session_open_ = false;
  int64_t session_first_ts_ = 0;
  int64_t session_last_ts_ = 0;
  int64_t session_group_max_ts_ = 0;   // max entry ts (grouped rows' stamp)
  std::vector<AggState> session_aggs_;        // ungrouped accumulator
  std::vector<uint8_t> session_group_bytes_;  // grouped: serialized entries

  // Scratch for grouped emission.
  GroupHashTable scratch_;
  std::vector<std::pair<const uint8_t*, const AggState*>> sort_scratch_;
};

/// Assembly for stateless and join queries: window results are the
/// concatenation of fragment results, so assembly forwards bytes.
class ConcatAssembly : public AssemblyState {
 public:
  void Ingest(const TaskResult& result, ByteBuffer* output) {
    output->Append(result.complete.data(), result.complete.size());
  }
};

}  // namespace saber
