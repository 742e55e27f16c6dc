#include "cpu/cpu_operators.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "cpu/fragment_assembly.h"
#include "cpu/udf_operator.h"
#include "relational/expression_compiler.h"
#include "relational/field_plan.h"
#include "relational/hash_table.h"
#include "runtime/object_pool.h"

namespace saber {

namespace {

inline int64_t LoadTs(const uint8_t* tuple) {
  int64_t ts;
  std::memcpy(&ts, tuple, sizeof(ts));
  return ts;
}

// ---------------------------------------------------------------------------
// Join window/partner arithmetic (the θ-join probe bounds are derived from
// these).
// ---------------------------------------------------------------------------

/// Window-index range containing axis coordinate `x` under definition `w`
/// (clamped to j >= 0).
inline WindowIndexRange WindowsOf(const WindowDefinition& w, int64_t x) {
  WindowIndexRange r;
  r.lo = std::max<int64_t>(0, FloorDiv(x - w.size, w.slide) + 1);
  r.hi = FloorDiv(x, w.slide);
  return r;
}

inline int64_t OppIndex(const StreamBatch& opp, size_t k, size_t opp_hist) {
  return k < opp_hist ? opp.history_first_index + static_cast<int64_t>(k)
                      : opp.first_index + static_cast<int64_t>(k - opp_hist);
}

inline const uint8_t* OppTuple(const StreamBatch& opp, size_t k,
                               size_t opp_hist) {
  return k < opp_hist ? opp.history_tuple(k) : opp.tuple(k - opp_hist);
}

/// Axis coordinate of the opposite side's k-th window element (timestamps
/// live at byte offset 0 of every stream tuple).
inline int64_t OppAxis(const StreamBatch& opp, const WindowDefinition& wo,
                       size_t k, size_t opp_hist) {
  if (!wo.time_based()) return OppIndex(opp, k, opp_hist);
  return LoadTs(OppTuple(opp, k, opp_hist));
}

// ===========================================================================
// Batch-at-a-time operators. Expressions are lowered once at operator
// construction; ProcessBatch evaluates them over pane runs with
// CompiledExpr's batch interpreter: predicates produce selection vectors
// (ascending uint32 tuple indices), projections / aggregate inputs / group
// keys produce typed columns that are fused into a single surviving-tuple
// pass. Values are bit-identical to the Expression tree that the reference
// model (src/reference/) interprets, by construction: the compiler mirrors
// the tree's typed lanes.
// ===========================================================================

/// Per-worker scratch for batch evaluation: selection vectors, typed value
/// columns, packed group keys, join candidate pointers. Sized to the
/// largest run seen by this thread; reused across tasks (no allocation on
/// the steady-state hot path, §5.1 object-pooling discipline).
struct VecScratch {
  std::vector<uint32_t> sel;
  std::vector<int64_t> i64;
  std::vector<double> f64;        // na columns, column-major (a * n + j)
  std::vector<int64_t> ts;
  std::vector<uint8_t> keys;      // packed group keys, key_size per row
  std::vector<uint32_t> hashes;
  std::vector<const uint8_t*> ptrs;
  std::vector<const uint8_t*> sel_ptrs;
};

VecScratch& Tls() {
  thread_local VecScratch s;
  return s;
}

/// Invokes fn(base, tuple_count, first_tuple_index_in_batch) for each
/// contiguous segment of the (possibly wrapped) stream batch.
template <typename Fn>
void ForEachSegment(const SpanPair& data, size_t tuple_size, Fn&& fn) {
  const size_t n1 = data.len1 / tuple_size;
  if (n1 > 0) fn(data.seg1, n1, size_t{0});
  const size_t n2 = data.len2 / tuple_size;
  if (n2 > 0) fn(data.seg2, n2, n1);
}

// Output-row plans come from relational/field_plan.h; each plan's program
// is evaluated as a column and scattered into the appended rows.

/// Scatters an int64 column into output rows, truncating to the field type
/// (like TupleWriter::SetInt32 after Expression::EvalInt64).
inline void ScatterInt(uint8_t* rows, size_t row_size, const FieldPlan& p,
                       const int64_t* vals, size_t n) {
  uint8_t* dst = rows + p.dst_offset;
  if (p.dst_type == DataType::kInt32) {
    for (size_t j = 0; j < n; ++j, dst += row_size) {
      const int32_t v = static_cast<int32_t>(vals[j]);
      std::memcpy(dst, &v, sizeof(v));
    }
  } else {
    for (size_t j = 0; j < n; ++j, dst += row_size) {
      std::memcpy(dst, &vals[j], sizeof(int64_t));
    }
  }
}

/// Scatters a double column (like TupleWriter::SetNumeric).
inline void ScatterDouble(uint8_t* rows, size_t row_size, const FieldPlan& p,
                          const double* vals, size_t n) {
  uint8_t* dst = rows + p.dst_offset;
  if (p.dst_type == DataType::kFloat) {
    for (size_t j = 0; j < n; ++j, dst += row_size) {
      const float v = static_cast<float>(vals[j]);
      std::memcpy(dst, &v, sizeof(v));
    }
  } else {
    for (size_t j = 0; j < n; ++j, dst += row_size) {
      std::memcpy(dst, &vals[j], sizeof(double));
    }
  }
}

// ---------------------------------------------------------------------------
// Stateless operators: projection and selection (§5.3 "a single scan over
// the stream batch"). With IStream semantics every input tuple contributes
// at most one output tuple, independent of the window definition — which is
// why Fig. 11a shows the slide having no effect on SELECT throughput.
//
// The predicate produces a selection vector; then either coalesced row
// forwarding (identity projection) or a fused projection pass that gathers
// surviving tuples per output field.
// ---------------------------------------------------------------------------

/// True if the projection is `select *` (byte forwarding, §5.1).
bool DetectIdentity(const QueryDef& q) {
  if (q.select.size() != q.input_schema[0].num_fields()) return false;
  for (size_t i = 0; i < q.select.size(); ++i) {
    const auto* col = q.select[i]->kind() == Expression::Kind::kColumn
                          ? static_cast<const ColumnExpr*>(q.select[i].get())
                          : nullptr;
    if (col == nullptr || col->field() != i) return false;
  }
  return q.output_schema.tuple_size() == q.input_schema[0].tuple_size();
}

class CpuStatelessOperator final : public Operator {
 public:
  explicit CpuStatelessOperator(const QueryDef* q) : Operator(q) {
    identity_ = DetectIdentity(*q);
    if (q->where != nullptr) {
      where_ = CompiledExpr::Compile(*q->where, q->input_schema[0]);
    }
    if (!identity_) {
      plans_ = BuildFieldPlans(q->select, q->output_schema, q->input_schema[0],
                               nullptr, /*field0_is_max_ts=*/false);
    }
  }

  void ProcessBatch(const TaskContext& ctx, TaskResult* out) const override {
    const StreamBatch& in = ctx.input[0];
    const size_t in_size = query_->input_schema[0].tuple_size();
    const size_t out_size = query_->output_schema.tuple_size();
    const size_t n = in.num_tuples();
    const bool has_where = !where_.empty();
    VecScratch& tls = Tls();

    out->axis_p = in.AxisP(query_->window[0]);
    out->axis_q = in.AxisQ(query_->window[0]);
    out->complete.Reserve(n * (identity_ ? in_size : out_size));

    ForEachSegment(in.data, in_size, [&](const uint8_t* base, size_t m, size_t) {
      const uint32_t* sel = nullptr;
      size_t cnt = m;
      if (has_where) {
        if (tls.sel.size() < m) tls.sel.resize(m);
        cnt = where_.EvalBatchBool(base, in_size, m, tls.sel.data());
        sel = tls.sel.data();
      }
      if (cnt == 0) return;

      if (identity_) {
        if (sel == nullptr) {
          out->complete.Append(base, m * in_size);
          return;
        }
        // Coalesce consecutive survivors into single memcpy spans.
        size_t j = 0;
        while (j < cnt) {
          size_t k = j + 1;
          while (k < cnt && sel[k] == sel[k - 1] + 1) ++k;
          out->complete.Append(base + size_t{sel[j]} * in_size,
                               (k - j) * in_size);
          j = k;
        }
        return;
      }

      uint8_t* rows = out->complete.AppendUninitialized(cnt * out_size);
      std::memset(rows, 0, cnt * out_size);  // padding, like TupleWriter
      for (const FieldPlan& p : plans_) {
        switch (p.kind) {
          case FieldPlan::Kind::kCopy: {
            uint8_t* dst = rows + p.dst_offset;
            for (size_t j = 0; j < cnt; ++j, dst += out_size) {
              const size_t src_row = sel != nullptr ? sel[j] : j;
              std::memcpy(dst, base + src_row * in_size + p.src_offset,
                          p.width);
            }
            break;
          }
          case FieldPlan::Kind::kInt:
            if (tls.i64.size() < cnt) tls.i64.resize(cnt);
            p.prog.EvalBatchInt64(base, in_size, sel, cnt, tls.i64.data());
            ScatterInt(rows, out_size, p, tls.i64.data(), cnt);
            break;
          case FieldPlan::Kind::kDouble:
            if (tls.f64.size() < cnt) tls.f64.resize(cnt);
            p.prog.EvalBatchDouble(base, in_size, sel, cnt, tls.f64.data());
            ScatterDouble(rows, out_size, p, tls.f64.data(), cnt);
            break;
          case FieldPlan::Kind::kMaxTs:
            break;  // single-input plans never use kMaxTs
        }
      }
    });
  }

  void Assemble(const TaskResult& result, AssemblyState* state,
                ByteBuffer* output) const override {
    static_cast<ConcatAssembly*>(state)->Ingest(result, output);
  }

  std::unique_ptr<AssemblyState> MakeAssemblyState() const override {
    return std::make_unique<ConcatAssembly>();
  }

 private:
  bool identity_;
  CompiledExpr where_;
  std::vector<FieldPlan> plans_;
};

// ---------------------------------------------------------------------------
// Aggregation: the batch operator function partitions the stream batch into
// panes and computes one partial aggregate per pane (§5.3). Finalization of
// window results happens in the assembly operator function
// (AggregationAssembly), which merges pane partials incrementally.
//
// The batch is cut into pane runs (for count-based windows the boundaries
// are pure arithmetic; for time-based windows a timestamp-column scan);
// each run evaluates the predicate into a selection vector, the aggregate
// inputs / group keys into typed columns, and fuses the accumulate pass
// over the survivors. Grouped tasks draw their hash table from a
// per-operator pool instead of allocating per task.
// ---------------------------------------------------------------------------

class CpuAggregationOperator final : public Operator {
 public:
  explicit CpuAggregationOperator(const QueryDef* q)
      : Operator(q),
        fmt_(PaneFormat::For(*q)),
        table_pool_(
            [key = fmt_.key_size, na = fmt_.num_aggs] {
              return std::make_unique<GroupHashTable>(key, na,
                                                      kGroupTableTaskCapacity);
            },
            /*preallocate=*/fmt_.grouped() ? 1 : 0) {
    SABER_CHECK(fmt_.num_aggs <= kMaxAggregatesPerQuery);
    SABER_CHECK(fmt_.key_size <= kMaxGroupKeyBytes);
    if (q->where != nullptr) {
      where_ = CompiledExpr::Compile(*q->where, q->input_schema[0]);
    }
    for (const auto& a : q->aggregates) {
      inputs_.push_back(a.input != nullptr
                            ? CompiledExpr::Compile(*a.input, q->input_schema[0])
                            : CompiledExpr());
    }
    for (const auto& k : q->group_by) {
      keys_.push_back(CompiledExpr::Compile(*k, q->input_schema[0]));
    }
  }

  void ProcessBatch(const TaskContext& ctx, TaskResult* out) const override {
    if (query_->window[0].session()) {
      if (fmt_.grouped()) {
        ProcessGroupedSession(ctx, out);
      } else {
        ProcessUngroupedSession(ctx, out);
      }
      return;
    }
    if (fmt_.grouped()) {
      ProcessGrouped(ctx, out);
    } else {
      ProcessUngrouped(ctx, out);
    }
  }

  void Assemble(const TaskResult& result, AssemblyState* state,
                ByteBuffer* output) const override {
    static_cast<AggregationAssembly*>(state)->Ingest(result, output);
  }

  std::unique_ptr<AssemblyState> MakeAssemblyState() const override {
    return std::make_unique<AggregationAssembly>(*query_);
  }

 private:
  // Session windows: the batch is cut at inactivity gaps into *segments*
  // (maximal runs with consecutive timestamps at most gap apart) instead of
  // grid panes; each segment ships [first_ts][last_ts] plus its partial so
  // the assembly can merge adjacent segments whose boundary gap did not
  // elapse (fragment_assembly.h). PaneEntry::pane_index is a task-local
  // ordinal — segments have no grid to index into. Tuples the predicate
  // filters out still extend the session: the extent is over raw
  // timestamps.

  /// Invokes run_fn(run_base, run_count, run_ts, batch_index) for each
  /// maximal gap-free run within one contiguous segment of the batch. The
  /// callers' merge-or-flush accumulator rejoins runs split by the ring
  /// wrap, so segment boundaries do not depend on where the batch wraps
  /// (the differential fuzz suite compares wrapped and contiguous
  /// TaskResults byte-for-byte).
  template <typename Fn>
  void ForEachSessionRun(const StreamBatch& in, int64_t gap, size_t tuple_size,
                         Fn&& run_fn) const {
    VecScratch& tls = Tls();
    ForEachSegment(in.data, tuple_size,
                   [&](const uint8_t* base, size_t m, size_t seg_off) {
      if (tls.ts.size() < m) tls.ts.resize(m);
      for (size_t i = 0; i < m; ++i) tls.ts[i] = LoadTs(base + i * tuple_size);
      size_t i = 0;
      while (i < m) {
        size_t j = i + 1;
        while (j < m && SessionExtends(tls.ts[j - 1], tls.ts[j], gap)) ++j;
        run_fn(base + i * tuple_size, j - i, tls.ts.data() + i, seg_off + i);
        i = j;
      }
    });
  }

  void ProcessUngroupedSession(const TaskContext& ctx, TaskResult* out) const {
    const StreamBatch& in = ctx.input[0];
    const WindowDefinition& w = query_->window[0];
    const size_t tsz = query_->input_schema[0].tuple_size();
    const size_t na = fmt_.num_aggs;
    const int64_t gap = w.gap();
    const bool has_where = !where_.empty();
    VecScratch& tls = Tls();

    out->axis_p = in.AxisP(w);
    out->axis_q = in.AxisQ(w);

    AggState cur[kMaxAggregatesPerQuery];
    bool open = false;
    int64_t first_ts = 0, last_ts = 0, seg = 0;

    auto flush = [&]() {
      if (!open) return;
      const uint32_t off = static_cast<uint32_t>(out->partials.size());
      out->partials.AppendValue<int64_t>(first_ts);
      out->partials.AppendValue<int64_t>(last_ts);
      out->partials.Append(cur, na * sizeof(AggState));
      out->panes.push_back(PaneEntry{
          seg++, off, static_cast<uint32_t>(fmt_.session_ungrouped_bytes())});
      open = false;
    };

    ForEachSessionRun(in, gap, tsz,
                      [&](const uint8_t* base, size_t m, const int64_t* ts,
                          size_t) {
      if (open && !SessionExtends(last_ts, ts[0], gap)) flush();
      if (!open) {
        open = true;
        first_ts = ts[0];
        for (size_t a = 0; a < na; ++a) AggInit(&cur[a]);
      }
      last_ts = ts[m - 1];
      const uint32_t* sel = nullptr;
      size_t cnt = m;
      if (has_where) {
        if (tls.sel.size() < m) tls.sel.resize(m);
        cnt = where_.EvalBatchBool(base, tsz, m, tls.sel.data());
        sel = tls.sel.data();
      }
      if (cnt == 0) return;
      if (tls.f64.size() < cnt) tls.f64.resize(cnt);
      for (size_t a = 0; a < na; ++a) {
        if (inputs_[a].empty()) {  // count(*): every survivor contributes 0.0
          for (size_t j = 0; j < cnt; ++j) AggAdd(&cur[a], 0.0);
          continue;
        }
        inputs_[a].EvalBatchDouble(base, tsz, sel, cnt, tls.f64.data());
        for (size_t j = 0; j < cnt; ++j) AggAdd(&cur[a], tls.f64[j]);
      }
    });
    flush();
  }

  void ProcessGroupedSession(const TaskContext& ctx, TaskResult* out) const {
    const StreamBatch& in = ctx.input[0];
    const WindowDefinition& w = query_->window[0];
    const size_t tsz = query_->input_schema[0].tuple_size();
    const size_t na = fmt_.num_aggs;
    const size_t nk = keys_.size();
    const size_t key_size = fmt_.key_size;
    const int64_t gap = w.gap();
    VecScratch& tls = Tls();
    const bool has_where = !where_.empty();

    out->axis_p = in.AxisP(w);
    out->axis_q = in.AxisQ(w);

    std::unique_ptr<GroupHashTable> table = table_pool_.Acquire();
    bool open = false;
    int64_t first_ts = 0, last_ts = 0, seg = 0;

    auto flush = [&]() {
      if (!open) return;
      const uint32_t off = static_cast<uint32_t>(out->partials.size());
      // Header even when the table is empty: a fully filtered segment still
      // defines session extent (the assembly needs its first/last ts).
      out->partials.AppendValue<int64_t>(first_ts);
      out->partials.AppendValue<int64_t>(last_ts);
      if (table->size() > 0) table->SerializeTo(&out->partials);
      out->panes.push_back(PaneEntry{
          seg++, off, static_cast<uint32_t>(out->partials.size() - off)});
      table->Clear();
      open = false;
    };

    ForEachSessionRun(in, gap, tsz,
                      [&](const uint8_t* base, size_t m, const int64_t* ts,
                          size_t batch_index) {
      if (open && !SessionExtends(last_ts, ts[0], gap)) flush();
      if (!open) {
        open = true;
        first_ts = ts[0];
      }
      last_ts = ts[m - 1];
      const uint32_t* sel = nullptr;
      size_t cnt = m;
      if (has_where) {
        if (tls.sel.size() < m) tls.sel.resize(m);
        cnt = where_.EvalBatchBool(base, tsz, m, tls.sel.data());
        sel = tls.sel.data();
      }
      if (cnt == 0) return;

      if (tls.keys.size() < cnt * key_size) tls.keys.resize(cnt * key_size);
      if (tls.i64.size() < cnt) tls.i64.resize(cnt);
      for (size_t k = 0; k < nk; ++k) {
        keys_[k].EvalBatchInt64(base, tsz, sel, cnt, tls.i64.data());
        uint8_t* dst = tls.keys.data() + k * 8;
        for (size_t j = 0; j < cnt; ++j, dst += key_size) {
          std::memcpy(dst, &tls.i64[j], sizeof(int64_t));
        }
      }
      if (tls.hashes.size() < cnt) tls.hashes.resize(cnt);
      for (size_t j = 0; j < cnt; ++j) {
        tls.hashes[j] = table->Hash(tls.keys.data() + j * key_size);
      }
      if (tls.f64.size() < na * cnt) tls.f64.resize(na * cnt);
      for (size_t a = 0; a < na; ++a) {
        double* col = tls.f64.data() + a * cnt;
        if (inputs_[a].empty()) {
          std::fill(col, col + cnt, 0.0);
        } else {
          inputs_[a].EvalBatchDouble(base, tsz, sel, cnt, col);
        }
      }
      for (size_t j = 0; j < cnt; ++j) {
        const uint8_t* key = tls.keys.data() + j * key_size;
        const size_t row = sel != nullptr ? sel[j] : j;
        const int32_t idx = static_cast<int32_t>(batch_index + row);
        const int64_t row_ts = ts[row];
        if (table->NeedsGrow()) table->Grow();
        AggState* aggs = table->UpsertHashed(tls.hashes[j], key, idx, row_ts);
        if (aggs == nullptr) {
          table->Grow();
          aggs = table->UpsertHashed(tls.hashes[j], key, idx, row_ts);
          SABER_CHECK(aggs != nullptr);
        }
        for (size_t a = 0; a < na; ++a) {
          AggAdd(&aggs[a], tls.f64[a * cnt + j]);
        }
      }
    });
    flush();

    // Pool only never-grown tables (see ProcessGrouped).
    if (table->capacity() == kGroupTableTaskCapacity) {
      table->Clear();
      table_pool_.Release(std::move(table));
    }
  }

  /// Invokes run_fn(run_base, run_count, run_ts, pane, batch_index) for each
  /// maximal same-pane run within the batch, in order. `run_ts` points at
  /// the run's decoded timestamp column.
  template <typename Fn>
  void ForEachPaneRun(const StreamBatch& in, const WindowDefinition& w,
                      size_t tuple_size, Fn&& run_fn) const {
    const int64_t g = w.pane_size();
    VecScratch& tls = Tls();
    ForEachSegment(in.data, tuple_size,
                   [&](const uint8_t* base, size_t m, size_t seg_off) {
      if (tls.ts.size() < m) tls.ts.resize(m);
      for (size_t i = 0; i < m; ++i) tls.ts[i] = LoadTs(base + i * tuple_size);
      size_t i = 0;
      while (i < m) {
        const int64_t axis = in.AxisOf(w, seg_off + i, tls.ts[i]);
        const int64_t pane = axis / g;
        size_t j;
        if (w.time_based()) {
          j = i + 1;
          while (j < m && tls.ts[j] / g == pane) ++j;
        } else {
          // Count axis advances by one per tuple: the run ends at the next
          // pane boundary (or the segment end).
          const int64_t remain = (pane + 1) * g - axis;
          j = std::min(m, i + static_cast<size_t>(remain));
        }
        run_fn(base + i * tuple_size, j - i, tls.ts.data() + i, pane,
               seg_off + i);
        i = j;
      }
    });
  }

  void ProcessUngrouped(const TaskContext& ctx, TaskResult* out) const {
    const StreamBatch& in = ctx.input[0];
    const WindowDefinition& w = query_->window[0];
    const size_t tsz = query_->input_schema[0].tuple_size();
    const size_t na = fmt_.num_aggs;
    const bool has_where = !where_.empty();
    VecScratch& tls = Tls();

    out->axis_p = in.AxisP(w);
    out->axis_q = in.AxisQ(w);

    AggState cur[kMaxAggregatesPerQuery];
    int64_t cur_pane = -1;
    int64_t cur_ts = 0;

    auto flush = [&]() {
      if (cur_pane < 0) return;
      const uint32_t off = static_cast<uint32_t>(out->partials.size());
      out->partials.AppendValue<int64_t>(cur_ts);
      out->partials.Append(cur, na * sizeof(AggState));
      out->panes.push_back(PaneEntry{
          cur_pane, off, static_cast<uint32_t>(fmt_.ungrouped_bytes())});
    };

    ForEachPaneRun(in, w, tsz,
                   [&](const uint8_t* base, size_t m, const int64_t* ts,
                       int64_t pane, size_t) {
      if (pane != cur_pane) {
        flush();
        cur_pane = pane;
        for (size_t a = 0; a < na; ++a) AggInit(&cur[a]);
      }
      cur_ts = ts[m - 1];  // last tuple of the pane so far, filtered or not
      const uint32_t* sel = nullptr;
      size_t cnt = m;
      if (has_where) {
        if (tls.sel.size() < m) tls.sel.resize(m);
        cnt = where_.EvalBatchBool(base, tsz, m, tls.sel.data());
        sel = tls.sel.data();
      }
      if (cnt == 0) return;
      if (tls.f64.size() < cnt) tls.f64.resize(cnt);
      for (size_t a = 0; a < na; ++a) {
        if (inputs_[a].empty()) {  // count(*): every survivor contributes 0.0
          for (size_t j = 0; j < cnt; ++j) AggAdd(&cur[a], 0.0);
          continue;
        }
        inputs_[a].EvalBatchDouble(base, tsz, sel, cnt, tls.f64.data());
        for (size_t j = 0; j < cnt; ++j) AggAdd(&cur[a], tls.f64[j]);
      }
    });
    flush();
  }

  void ProcessGrouped(const TaskContext& ctx, TaskResult* out) const {
    const StreamBatch& in = ctx.input[0];
    const WindowDefinition& w = query_->window[0];
    const size_t tsz = query_->input_schema[0].tuple_size();
    const size_t na = fmt_.num_aggs;
    const size_t nk = keys_.size();
    const size_t key_size = fmt_.key_size;
    VecScratch& tls = Tls();
    const bool has_where = !where_.empty();

    out->axis_p = in.AxisP(w);
    out->axis_q = in.AxisQ(w);

    std::unique_ptr<GroupHashTable> table = table_pool_.Acquire();
    int64_t cur_pane = -1;

    auto flush = [&]() {
      if (cur_pane < 0 || table->size() == 0) {
        if (cur_pane >= 0) table->Clear();
        return;
      }
      const uint32_t off = static_cast<uint32_t>(out->partials.size());
      table->SerializeTo(&out->partials);
      out->panes.push_back(PaneEntry{
          cur_pane, off, static_cast<uint32_t>(out->partials.size() - off)});
      table->Clear();
    };

    ForEachPaneRun(in, w, tsz,
                   [&](const uint8_t* base, size_t m, const int64_t* ts,
                       int64_t pane, size_t batch_index) {
      if (pane != cur_pane) {
        flush();
        cur_pane = pane;
      }
      const uint32_t* sel = nullptr;
      size_t cnt = m;
      if (has_where) {
        if (tls.sel.size() < m) tls.sel.resize(m);
        cnt = where_.EvalBatchBool(base, tsz, m, tls.sel.data());
        sel = tls.sel.data();
      }
      if (cnt == 0) return;

      // Pack keys with the precomputed offset plan (key k at byte k*8) and
      // hash the whole run before probing.
      if (tls.keys.size() < cnt * key_size) tls.keys.resize(cnt * key_size);
      if (tls.i64.size() < cnt) tls.i64.resize(cnt);
      for (size_t k = 0; k < nk; ++k) {
        keys_[k].EvalBatchInt64(base, tsz, sel, cnt, tls.i64.data());
        uint8_t* dst = tls.keys.data() + k * 8;
        for (size_t j = 0; j < cnt; ++j, dst += key_size) {
          std::memcpy(dst, &tls.i64[j], sizeof(int64_t));
        }
      }
      if (tls.hashes.size() < cnt) tls.hashes.resize(cnt);
      for (size_t j = 0; j < cnt; ++j) {
        tls.hashes[j] = table->Hash(tls.keys.data() + j * key_size);
      }
      if (tls.f64.size() < na * cnt) tls.f64.resize(na * cnt);
      for (size_t a = 0; a < na; ++a) {
        double* col = tls.f64.data() + a * cnt;
        if (inputs_[a].empty()) {
          std::fill(col, col + cnt, 0.0);
        } else {
          inputs_[a].EvalBatchDouble(base, tsz, sel, cnt, col);
        }
      }

      for (size_t j = 0; j < cnt; ++j) {
        const uint8_t* key = tls.keys.data() + j * key_size;
        const size_t row = sel != nullptr ? sel[j] : j;
        const int32_t idx = static_cast<int32_t>(batch_index + row);
        const int64_t row_ts = ts[row];
        if (table->NeedsGrow()) table->Grow();
        AggState* aggs = table->UpsertHashed(tls.hashes[j], key, idx, row_ts);
        if (aggs == nullptr) {
          table->Grow();
          aggs = table->UpsertHashed(tls.hashes[j], key, idx, row_ts);
          SABER_CHECK(aggs != nullptr);
        }
        for (size_t a = 0; a < na; ++a) {
          AggAdd(&aggs[a], tls.f64[a * cnt + j]);
        }
      }
    });
    flush();

    // Pool only never-grown tables: SerializeTo order depends on capacity,
    // and a pooled larger-capacity table would serialize the same groups in
    // a different order than the freshly-built table another run would use
    // (see kGroupTableTaskCapacity).
    if (table->capacity() == kGroupTableTaskCapacity) {
      table->Clear();
      table_pool_.Release(std::move(table));
    }
  }

  PaneFormat fmt_;
  CompiledExpr where_;
  std::vector<CompiledExpr> inputs_;  // empty program = count(*)
  std::vector<CompiledExpr> keys_;
  mutable ObjectPool<GroupHashTable> table_pool_;
};

// ---------------------------------------------------------------------------
// Streaming θ-join (§5.3, Kang et al. [35]). The dispatcher aligns the two
// stream batches on a common timestamp cut, so a symmetric merge over the
// two batches — joining each arriving tuple against the opposite stream's
// current window contents (history + already-processed batch prefix) —
// produces every result pair exactly once, in arrival order. Task execution
// is sequential within the task; parallelism comes from concurrent tasks.
//
// The timestamp-merge outer loop is cheap bookkeeping; the probe inner loop
// is batched: the partner range [scan_lo, k_end) is delimited with pure axis
// arithmetic (no per-candidate FloorDiv — the window-overlap checks reduce
// to axis bounds because partners are axis-ordered), the predicate runs
// batch-at-a-time over the candidate pointers with the new element
// broadcast, and survivors are emitted through the same field plans as the
// stateless operator.
// ---------------------------------------------------------------------------

class CpuJoinOperator final : public Operator {
 public:
  explicit CpuJoinOperator(const QueryDef* q) : Operator(q) {
    pred_ = CompiledExpr::Compile(*q->join_predicate, q->input_schema[0],
                                  &q->input_schema[1]);
    plans_ = BuildFieldPlans(q->join_select, q->output_schema,
                             q->input_schema[0], &q->input_schema[1],
                             /*field0_is_max_ts=*/true);
  }

  void ProcessBatch(const TaskContext& ctx, TaskResult* out) const override {
    const StreamBatch& L = ctx.input[0];
    const StreamBatch& R = ctx.input[1];
    const WindowDefinition& wl = query_->window[0];
    out->axis_p = L.AxisP(wl);
    out->axis_q = L.AxisQ(wl);

    const size_t nl = L.num_tuples();
    const size_t nr = R.num_tuples();
    const size_t hl = L.history_tuples();
    const size_t hr = R.history_tuples();
    size_t r_scan_lo = 0;
    size_t l_scan_lo = 0;

    size_t il = 0, ir = 0;
    while (il < nl || ir < nr) {
      bool take_left;
      if (il >= nl) {
        take_left = false;
      } else if (ir >= nr) {
        take_left = true;
      } else {
        take_left = LoadTs(L.tuple(il)) <= LoadTs(R.tuple(ir));  // left wins ties
      }
      if (take_left) {
        JoinNewElement</*kNewIsLeft=*/true>(L, R, il, ir, hr, &r_scan_lo, out);
        ++il;
      } else {
        JoinNewElement</*kNewIsLeft=*/false>(R, L, ir, il, hl, &l_scan_lo, out);
        ++ir;
      }
    }
  }

  void Assemble(const TaskResult& result, AssemblyState* state,
                ByteBuffer* output) const override {
    static_cast<ConcatAssembly*>(state)->Ingest(result, output);
  }

  std::unique_ptr<AssemblyState> MakeAssemblyState() const override {
    return std::make_unique<ConcatAssembly>();
  }

 private:
  /// Joins the `new_idx`-th tuple of `nw` (the newly arriving side) against
  /// the opposite side's window contents: its history plus the batch prefix
  /// [0, opp_prefix). `opp_hist` is the history tuple count of the opposite
  /// side; `scan_lo` persists the advancing lower bound across calls.
  template <bool kNewIsLeft>
  void JoinNewElement(const StreamBatch& nw, const StreamBatch& opp,
                      size_t new_idx, size_t opp_prefix, size_t opp_hist,
                      size_t* scan_lo, TaskResult* out) const {
    const WindowDefinition& wn = query_->window[kNewIsLeft ? 0 : 1];
    const WindowDefinition& wo = query_->window[kNewIsLeft ? 1 : 0];

    const uint8_t* tptr = nw.tuple(new_idx);
    const int64_t ts = LoadTs(tptr);
    const int64_t axis_n =
        wn.time_based() ? ts : nw.first_index + static_cast<int64_t>(new_idx);
    const WindowIndexRange jn = WindowsOf(wn, axis_n);
    if (jn.empty()) return;

    // Window overlap as axis bounds (FloorDiv(x, s) >= t <=> x >= t*s, s > 0):
    // - permanent skip: an opposite tuple whose windows all end before jn.lo
    //   (FloorDiv(axis_o, slide) < jn.lo <=> axis_o < lo_bound) can never
    //   match this or any later new element;
    // - probe stop: partners are axis-ordered, so the first one whose windows
    //   start after jn.hi (jo.lo > jn.hi <=> axis_o >= hi_bound) ends it.
    const size_t total = opp_hist + opp_prefix;
    const int64_t lo_bound = jn.lo * wo.slide;
    const int64_t hi_bound = jn.hi * wo.slide + wo.size;
    while (*scan_lo < total &&
           OppAxis(opp, wo, *scan_lo, opp_hist) < lo_bound) {
      ++(*scan_lo);
    }
    size_t k_end = *scan_lo;
    while (k_end < total && OppAxis(opp, wo, k_end, opp_hist) < hi_bound) {
      ++k_end;
    }
    const size_t cand = k_end - *scan_lo;
    if (cand == 0) return;

    VecScratch& tls = Tls();
    if (tls.ptrs.size() < cand) tls.ptrs.resize(cand);
    for (size_t k = *scan_lo; k < k_end; ++k) {
      tls.ptrs[k - *scan_lo] = OppTuple(opp, k, opp_hist);
    }
    if (tls.sel.size() < cand) tls.sel.resize(cand);
    size_t m;
    if (kNewIsLeft) {
      m = pred_.EvalBatchBoolPairs(nullptr, tptr, tls.ptrs.data(), nullptr,
                                   cand, tls.sel.data());
    } else {
      m = pred_.EvalBatchBoolPairs(tls.ptrs.data(), nullptr, nullptr, tptr,
                                   cand, tls.sel.data());
    }
    if (m == 0) return;
    if (tls.sel_ptrs.size() < m) tls.sel_ptrs.resize(m);
    for (size_t j = 0; j < m; ++j) tls.sel_ptrs[j] = tls.ptrs[tls.sel[j]];
    EmitPairs<kNewIsLeft>(tptr, ts, tls.sel_ptrs.data(), m, out);
  }

  template <bool kNewIsLeft>
  void EmitPairs(const uint8_t* tptr, int64_t ts,
                 const uint8_t* const* opp_ptrs, size_t m,
                 TaskResult* out) const {
    const size_t out_size = query_->output_schema.tuple_size();
    VecScratch& tls = Tls();
    uint8_t* rows = out->complete.AppendUninitialized(m * out_size);
    std::memset(rows, 0, m * out_size);  // padding, like TupleWriter

    const uint8_t* const* larr = kNewIsLeft ? nullptr : opp_ptrs;
    const uint8_t* lfix = kNewIsLeft ? tptr : nullptr;
    const uint8_t* const* rarr = kNewIsLeft ? opp_ptrs : nullptr;
    const uint8_t* rfix = kNewIsLeft ? nullptr : tptr;

    for (const FieldPlan& p : plans_) {
      switch (p.kind) {
        case FieldPlan::Kind::kMaxTs: {
          uint8_t* dst = rows + p.dst_offset;
          for (size_t j = 0; j < m; ++j, dst += out_size) {
            const int64_t v = std::max(ts, LoadTs(opp_ptrs[j]));
            std::memcpy(dst, &v, sizeof(v));
          }
          break;
        }
        case FieldPlan::Kind::kCopy: {
          const bool src_is_new = (p.side == 0) == kNewIsLeft;
          uint8_t* dst = rows + p.dst_offset;
          for (size_t j = 0; j < m; ++j, dst += out_size) {
            const uint8_t* src = src_is_new ? tptr : opp_ptrs[j];
            std::memcpy(dst, src + p.src_offset, p.width);
          }
          break;
        }
        case FieldPlan::Kind::kInt:
          if (tls.i64.size() < m) tls.i64.resize(m);
          p.prog.EvalBatchInt64Pairs(larr, lfix, rarr, rfix, m,
                                     tls.i64.data());
          ScatterInt(rows, out_size, p, tls.i64.data(), m);
          break;
        case FieldPlan::Kind::kDouble:
          if (tls.f64.size() < m) tls.f64.resize(m);
          p.prog.EvalBatchDoublePairs(larr, lfix, rarr, rfix, m,
                                      tls.f64.data());
          ScatterDouble(rows, out_size, p, tls.f64.data(), m);
          break;
      }
    }
  }

  CompiledExpr pred_;
  std::vector<FieldPlan> plans_;
};

}  // namespace

std::unique_ptr<Operator> MakeCpuOperator(const QueryDef* query) {
  if (query->is_udf()) return MakeCpuUdfOperator(query);
  if (query->is_join()) return std::make_unique<CpuJoinOperator>(query);
  if (query->is_aggregation()) {
    return std::make_unique<CpuAggregationOperator>(query);
  }
  return std::make_unique<CpuStatelessOperator>(query);
}

}  // namespace saber
