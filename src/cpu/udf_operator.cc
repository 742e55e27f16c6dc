#include "cpu/udf_operator.h"

#include <algorithm>
#include <limits>

#include "relational/tuple_ref.h"
#include "window/window_math.h"

namespace saber {

namespace {

/// Slices one input's stream batch into panes, appending the tuples of each
/// pane to out->partials with a PaneEntry per pane.
void CollectPanes(const QueryDef& q, const StreamBatch& in, int input,
                  TaskResult* out) {
  const WindowDefinition& w = q.window[input];
  const Schema& schema = q.input_schema[input];
  const size_t tsz = schema.tuple_size();
  const size_t n = in.num_tuples();
  const int64_t g = w.pane_size();

  int64_t cur_pane = -1;
  uint32_t pane_off = 0;
  auto flush = [&]() {
    if (cur_pane < 0) return;
    out->panes.push_back(
        PaneEntry{EncodeUdfPane(input, cur_pane), pane_off,
                  static_cast<uint32_t>(out->partials.size() - pane_off)});
  };
  for (size_t i = 0; i < n; ++i) {
    const uint8_t* bytes = in.tuple(i);
    int64_t ts;
    std::memcpy(&ts, bytes, sizeof(ts));
    const int64_t pane = in.AxisOf(w, i, ts) / g;
    if (pane != cur_pane) {
      flush();
      cur_pane = pane;
      pane_off = static_cast<uint32_t>(out->partials.size());
    }
    out->partials.Append(bytes, tsz);
  }
  flush();
}

/// CPU batch operator function for UDF queries: fragment collection (§3's
/// f_f). Runs single-threaded per task; parallelism comes from concurrent
/// tasks, exactly like the relational operators (§5.3).
class CpuUdfOperator final : public Operator {
 public:
  explicit CpuUdfOperator(const QueryDef* q) : Operator(q) {}

  void ProcessBatch(const TaskContext& ctx, TaskResult* out) const override {
    UdfAxisHeader h;
    for (int i = 0; i < ctx.num_inputs; ++i) {
      h.axis_p[i] = ctx.input[i].AxisP(query_->window[i]);
      h.axis_q[i] = ctx.input[i].AxisQ(query_->window[i]);
    }
    out->axis_p = h.axis_p[0];
    out->axis_q = h.axis_q[0];
    out->partials.Append(&h, sizeof(h));
    for (int i = 0; i < ctx.num_inputs; ++i) {
      CollectPanes(*query_, ctx.input[i], i, out);
    }
  }

  void Assemble(const TaskResult& result, AssemblyState* state,
                ByteBuffer* output) const override {
    static_cast<UdfAssembly*>(state)->Ingest(result, output);
  }

  std::unique_ptr<AssemblyState> MakeAssemblyState() const override {
    return std::make_unique<UdfAssembly>(*query_);
  }
};

}  // namespace

// ===========================================================================
// UdfAssembly.
// ===========================================================================

UdfAssembly::UdfAssembly(const QueryDef& q) : q_(q), n_(q.num_inputs) {}

void UdfAssembly::Ingest(const TaskResult& result, ByteBuffer* output) {
  SABER_CHECK(result.partials.size() >= sizeof(UdfAxisHeader));
  UdfAxisHeader h;
  std::memcpy(&h, result.partials.data(), sizeof(h));
  for (const PaneEntry& e : result.panes) {
    const int input = UdfPaneInput(e.pane_index);
    const int64_t pane = UdfPaneIndex(e.pane_index);
    const uint8_t* data = result.partials.data() + e.offset;
    auto& bytes = store_[input][pane];
    bytes.insert(bytes.end(), data, data + e.length);
  }
  for (int i = 0; i < n_; ++i) {
    watermark_[i] = std::max(watermark_[i], h.axis_q[i]);
  }
  EmitReadyWindows(output);
}

void UdfAssembly::EmitReadyWindows(ByteBuffer* output) {
  for (;;) {
    // A window is ready when it closed on every input: end_i <= watermark_i.
    int64_t ready_hi = std::numeric_limits<int64_t>::max();
    for (int i = 0; i < n_; ++i) {
      const WindowDefinition& w = q_.window[i];
      ready_hi = std::min(ready_hi, FloorDiv(watermark_[i] - w.size, w.slide));
    }
    // Fast-forward over provably-empty windows: the earliest window holding
    // any stored pane on any input (time-based streams can jump hours).
    int64_t j_first = std::numeric_limits<int64_t>::max();
    for (int i = 0; i < n_; ++i) {
      if (store_[i].empty()) continue;
      const WindowDefinition& w = q_.window[i];
      const int64_t p0 = store_[i].begin()->first;
      j_first = std::min(
          j_first, CeilDiv(p0 + 1 - w.panes_per_window(), w.panes_per_slide()));
    }
    if (j_first == std::numeric_limits<int64_t>::max()) {
      // No panes anywhere: everything ready is empty.
      next_window_ = std::max(next_window_, ready_hi + 1);
      return;
    }
    next_window_ = std::max(next_window_, std::max<int64_t>(0, j_first));
    if (next_window_ > ready_hi) return;
    EmitWindow(next_window_, output);
    ++next_window_;
    for (int i = 0; i < n_; ++i) {
      auto& s = store_[i];
      s.erase(s.begin(), s.lower_bound(FirstPaneOf(q_.window[i], next_window_)));
    }
  }
}

void UdfAssembly::EmitWindow(int64_t j, ByteBuffer* output) {
  WindowView views[2];
  int64_t window_ts = 0;
  bool any = false;
  for (int i = 0; i < n_; ++i) {
    const WindowDefinition& w = q_.window[i];
    const Schema& schema = q_.input_schema[i];
    ByteBuffer& scratch = window_scratch_[i];
    scratch.Clear();
    const int64_t first = FirstPaneOf(w, j);
    const int64_t last = LastPaneOf(w, j);
    for (auto it = store_[i].lower_bound(first);
         it != store_[i].end() && it->first <= last; ++it) {
      scratch.Append(it->second.data(), it->second.size());
    }
    const size_t tsz = schema.tuple_size();
    views[i] = WindowView{&schema, scratch.data(), scratch.size() / tsz};
    if (views[i].num_tuples > 0) {
      any = true;
      // Tuples are ordered by timestamp: the window's max is its last tuple.
      int64_t ts;
      std::memcpy(&ts, views[i].tuple_bytes(views[i].num_tuples - 1),
                  sizeof(ts));
      window_ts = std::max(window_ts, ts);
    }
  }
  if (!any) return;
  q_.udf->OnWindow(views, n_, window_ts, output);
}

std::unique_ptr<Operator> MakeCpuUdfOperator(const QueryDef* query) {
  return std::make_unique<CpuUdfOperator>(query);
}

}  // namespace saber
