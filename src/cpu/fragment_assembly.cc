#include "cpu/fragment_assembly.h"

#include <algorithm>
#include <cstring>
#include <limits>

namespace saber {

AggregationAssembly::AggregationAssembly(const QueryDef& q)
    : q_(q),
      w_(q.window[0]),
      fmt_(PaneFormat::For(q)),
      stacks_(fmt_.num_aggs),
      scratch_(fmt_.grouped() ? fmt_.key_size : 8, fmt_.num_aggs, 1024) {
  use_stacks_ = !fmt_.grouped() && q.assembly_mode == AssemblyMode::kAuto;
  stacks_query_.resize(fmt_.num_aggs);
}

void AggregationAssembly::Ingest(const TaskResult& result, ByteBuffer* output) {
  if (w_.session()) {
    // Segment partials arrive in stream order (tasks in task order, and in
    // axis order within a task); gaps between them close sessions inline.
    for (const PaneEntry& e : result.panes) {
      MergeSessionSegment(result.partials.data() + e.offset, e.length, output);
    }
    watermark_ = std::max(watermark_, result.axis_q);
    if (session_open_ &&
        SessionClosed(session_last_ts_, watermark_, w_.gap())) {
      EmitSession(output);
    }
    return;
  }
  for (const PaneEntry& e : result.panes) {
    MergeEntry(e.pane_index, result.partials.data() + e.offset, e.length);
  }
  watermark_ = std::max(watermark_, result.axis_q);
  EmitReadyWindows(output);
}

void AggregationAssembly::MergeSessionSegment(const uint8_t* data, size_t len,
                                              ByteBuffer* output) {
  int64_t first, last;
  std::memcpy(&first, data, sizeof(first));
  std::memcpy(&last, data + 8, sizeof(last));
  if (session_open_ && !SessionExtends(session_last_ts_, first, w_.gap())) {
    // A segment opening more than gap later proves the open session can
    // never grow again (all future tuples are >= first): close it now,
    // before the watermark would.
    EmitSession(output);
  }
  if (!session_open_) {
    session_open_ = true;
    session_first_ts_ = first;
    session_group_max_ts_ = std::numeric_limits<int64_t>::min();
    if (!fmt_.grouped()) {
      session_aggs_.resize(fmt_.num_aggs);
      for (auto& s : session_aggs_) AggInit(&s);
    }
  } else {
    SABER_DCHECK(SessionExtends(session_last_ts_, first, w_.gap()));
  }
  session_last_ts_ = std::max(session_last_ts_, last);
  if (!fmt_.grouped()) {
    SABER_DCHECK(len == fmt_.session_ungrouped_bytes());
    const auto* aggs =
        reinterpret_cast<const AggState*>(data + PaneFormat::kSessionHeaderBytes);
    for (size_t a = 0; a < fmt_.num_aggs; ++a) {
      AggMerge(&session_aggs_[a], aggs[a]);
    }
  } else {
    // Entries after the header (possibly none: a fully filtered segment
    // still extends the session's raw extent).
    const uint8_t* entries = data + PaneFormat::kSessionHeaderBytes;
    const size_t elen = len - PaneFormat::kSessionHeaderBytes;
    const size_t esz = fmt_.grouped_entry_bytes();
    SABER_DCHECK(elen % esz == 0);
    session_group_bytes_.insert(session_group_bytes_.end(), entries,
                                entries + elen);
    for (size_t off = 0; off < elen; off += esz) {
      int64_t ts;
      std::memcpy(&ts, entries + off, sizeof(ts));
      session_group_max_ts_ = std::max(session_group_max_ts_, ts);
    }
  }
}

void AggregationAssembly::EmitSession(ByteBuffer* output) {
  if (!fmt_.grouped()) {
    // Like ungrouped grid windows, a session emits even when every tuple
    // was filtered out (the aggregates are then their init states); the
    // row timestamp is the session's last *raw* tuple timestamp.
    EmitUngroupedRow(session_last_ts_, session_aggs_.data(), output);
  } else if (!session_group_bytes_.empty()) {
    scratch_.Clear();
    scratch_.MergeSerialized(session_group_bytes_.data(),
                             session_group_bytes_.size());
    EmitGroupedRows(session_group_max_ts_, output);
  }
  session_open_ = false;
  session_group_bytes_.clear();
}

void AggregationAssembly::MergeEntry(int64_t pane, const uint8_t* data,
                                     size_t len) {
  PaneData& pd = store_[pane];
  if (!fmt_.grouped()) {
    SABER_DCHECK(len == fmt_.ungrouped_bytes());
    int64_t ts;
    std::memcpy(&ts, data, sizeof(ts));
    const auto* aggs = reinterpret_cast<const AggState*>(data + 8);
    if (pd.aggs.empty()) {
      pd.aggs.assign(aggs, aggs + fmt_.num_aggs);
      pd.max_ts = ts;
    } else {
      for (size_t a = 0; a < fmt_.num_aggs; ++a) AggMerge(&pd.aggs[a], aggs[a]);
      pd.max_ts = std::max(pd.max_ts, ts);
    }
  } else {
    SABER_DCHECK(len % fmt_.grouped_entry_bytes() == 0);
    pd.group_bytes.insert(pd.group_bytes.end(), data, data + len);
    // Pane timestamp = max over all group entries (each entry carries its
    // group's max).
    const size_t esz = fmt_.grouped_entry_bytes();
    for (size_t off = 0; off < len; off += esz) {
      int64_t ts;
      std::memcpy(&ts, data + off, sizeof(ts));
      pd.max_ts = std::max(pd.max_ts, ts);
    }
  }
}

void AggregationAssembly::EmitReadyWindows(ByteBuffer* output) {
  for (;;) {
    if (store_.empty()) {
      // Every window closing before the watermark is empty; skip them all in
      // O(1) (time-based streams can jump hours between tuples).
      const int64_t first_open = FloorDiv(watermark_ - w_.size, w_.slide) + 1;
      if (first_open > next_window_) {
        next_window_ = std::max<int64_t>(0, first_open);
      }
      return;
    }
    // Skip windows that end before the earliest stored pane: they are empty.
    const int64_t p0 = store_.begin()->first;
    const int64_t j0 = CeilDiv(p0 + 1 - w_.panes_per_window(), w_.panes_per_slide());
    if (j0 > next_window_) next_window_ = std::max<int64_t>(0, j0);
    if (WindowEnd(w_, next_window_) > watermark_) return;
    EmitWindow(next_window_, output);
    ++next_window_;
    store_.erase(store_.begin(),
                 store_.lower_bound(FirstPaneOf(w_, next_window_)));
  }
}

void AggregationAssembly::EmitWindow(int64_t j, ByteBuffer* output) {
  if (fmt_.grouped()) {
    EmitGroupedWindow(j, output);
    return;
  }
  const int64_t first = FirstPaneOf(w_, j);
  const int64_t last = LastPaneOf(w_, j);
  // Locate the last non-empty pane of the window; its max_ts is the window's
  // max tuple timestamp (timestamps are non-decreasing along panes).
  auto it = store_.upper_bound(last);
  if (it == store_.begin()) return;  // window is empty: emit nothing
  --it;
  if (it->first < first) return;  // all stored panes precede this window
  const int64_t ts = it->second.max_ts;

  if (use_stacks_) {
    AdvanceStacks(j);
    for (auto& s : stacks_query_) AggInit(&s);
    stacks_.Query(stacks_query_.data());
    EmitUngroupedRow(ts, stacks_query_.data(), output);
    return;
  }
  // Re-merge path: merge all of the window's panes per emission (grouped
  // queries, or AssemblyMode::kRemergeOnly for the ablation baseline).
  std::vector<AggState> acc(fmt_.num_aggs);
  for (auto& s : acc) AggInit(&s);
  for (auto pit = store_.lower_bound(first);
       pit != store_.end() && pit->first <= last; ++pit) {
    for (size_t a = 0; a < fmt_.num_aggs; ++a) AggMerge(&acc[a], pit->second.aggs[a]);
  }
  EmitUngroupedRow(ts, acc.data(), output);
}

void AggregationAssembly::AdvanceStacks(int64_t j) {
  const int64_t first = FirstPaneOf(w_, j);
  const int64_t last = LastPaneOf(w_, j);
  stacks_.EvictBefore(first);
  // Push panes that slid into the window. Panes <= last are final: their end
  // lies at or before the window's end, which the watermark has passed.
  const int64_t from = std::max(first, stacks_.last_pushed() + 1);
  for (auto it = store_.lower_bound(from);
       it != store_.end() && it->first <= last; ++it) {
    stacks_.Push(it->first, it->second.aggs.data());
  }
}

void AggregationAssembly::EmitUngroupedRow(int64_t ts, const AggState* aggs,
                                           ByteBuffer* output) {
  const Schema& out = q_.output_schema;
  uint8_t* row = output->AppendUninitialized(out.tuple_size());
  TupleWriter wr(row, &out);
  wr.SetInt64(0, ts);
  for (size_t a = 0; a < fmt_.num_aggs; ++a) {
    wr.SetDouble(1 + a, AggFinalize(q_.aggregates[a].fn, aggs[a]));
  }
  if (q_.having != nullptr) {
    TupleRef ref(row, &out);
    if (!q_.having->EvalBool(ref, nullptr)) {
      output->Resize(output->size() - out.tuple_size());
    }
  }
}

void AggregationAssembly::EmitGroupedWindow(int64_t j, ByteBuffer* output) {
  const int64_t first = FirstPaneOf(w_, j);
  const int64_t last = LastPaneOf(w_, j);
  scratch_.Clear();
  bool any = false;
  // All rows of a window carry the *window's* max timestamp: per-group
  // maxima are not monotone across windows, and the result stream must
  // respect timestamp order (§2.4) so that chained queries (SG3, LRB4) see
  // an ordered input.
  int64_t window_ts = 0;
  for (auto it = store_.lower_bound(first);
       it != store_.end() && it->first <= last; ++it) {
    if (it->second.group_bytes.empty()) continue;
    scratch_.MergeSerialized(it->second.group_bytes.data(),
                             it->second.group_bytes.size());
    window_ts = std::max(window_ts, it->second.max_ts);
    any = true;
  }
  if (!any) return;
  EmitGroupedRows(window_ts, output);
}

void AggregationAssembly::EmitGroupedRows(int64_t window_ts,
                                          ByteBuffer* output) {
  // Deterministic output: sort groups by key bytes. (Hash-table iteration
  // order would otherwise depend on which processor executed which task.)
  sort_scratch_.clear();
  scratch_.ForEachOccupied(
      [&](const uint8_t* key, int64_t /*group_ts*/, const AggState* aggs) {
        sort_scratch_.emplace_back(key, aggs);
      });
  std::vector<size_t> order(sort_scratch_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  const size_t ksz = fmt_.key_size;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return std::memcmp(sort_scratch_[a].first, sort_scratch_[b].first, ksz) < 0;
  });

  const Schema& out = q_.output_schema;
  const size_t num_keys = q_.group_by.size();
  for (size_t idx : order) {
    const uint8_t* key = sort_scratch_[idx].first;
    const AggState* aggs = sort_scratch_[idx].second;
    uint8_t* row = output->AppendUninitialized(out.tuple_size());
    TupleWriter wr(row, &out);
    wr.SetInt64(0, window_ts);
    for (size_t k = 0; k < num_keys; ++k) {
      int64_t kv;
      std::memcpy(&kv, key + k * 8, sizeof(kv));
      wr.SetInt64(1 + k, kv);
    }
    for (size_t a = 0; a < fmt_.num_aggs; ++a) {
      wr.SetDouble(1 + num_keys + a, AggFinalize(q_.aggregates[a].fn, aggs[a]));
    }
    if (q_.having != nullptr) {
      TupleRef ref(row, &out);
      if (!q_.having->EvalBool(ref, nullptr)) {
        output->Resize(output->size() - out.tuple_size());
      }
    }
  }
}

}  // namespace saber
