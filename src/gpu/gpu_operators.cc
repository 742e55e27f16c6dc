#include "gpu/gpu_operators.h"

#include <algorithm>
#include <cstring>
#include <latch>

#include "window/window_math.h"

namespace saber {

namespace {

inline int64_t LoadTs(const uint8_t* tuple) {
  int64_t ts;
  std::memcpy(&ts, tuple, sizeof(ts));
  return ts;
}

/// The task restricted to tuples [lo, hi) of input 0 (lo < hi): one work
/// group's share of the batch, with the axis bookkeeping the batch operator
/// reads (first index, first/last timestamp, the preceding timestamp).
TaskContext GroupContext(const TaskContext& ctx, size_t lo, size_t hi) {
  TaskContext sub = ctx;
  const StreamBatch& in = ctx.input[0];
  StreamBatch& b = sub.input[0];
  b.data = SpanPair{in.tuple(lo), (hi - lo) * in.tuple_size, nullptr, 0};
  b.first_index = in.first_index + static_cast<int64_t>(lo);
  b.first_ts = LoadTs(in.tuple(lo));
  b.last_ts = LoadTs(in.tuple(hi - 1));
  if (lo > 0) b.prev_last_ts = LoadTs(in.tuple(lo - 1));
  return sub;
}

}  // namespace

std::vector<size_t> WorkGroupCuts(const QueryDef& q, const StreamBatch& in,
                                  size_t max_groups) {
  const size_t n = in.num_tuples();
  std::vector<size_t> cuts{0};
  if (q.is_join() || q.is_udf()) {
    cuts.push_back(n);
    return cuts;
  }
  const WindowDefinition& w = q.window[0];
  const int64_t g = w.pane_size();
  // First tuple index >= i (0 < i) at which a group may start, or n.
  auto next_cut = [&](size_t i) -> size_t {
    if (!q.is_aggregation()) return i;
    if (!w.session() && !w.time_based()) {
      const int64_t axis = in.first_index + static_cast<int64_t>(i);
      return i + static_cast<size_t>((g - axis % g) % g);
    }
    for (; i < n; ++i) {
      const int64_t prev = LoadTs(in.tuple(i - 1));
      const int64_t ts = LoadTs(in.tuple(i));
      const bool boundary = w.session() ? !SessionExtends(prev, ts, w.gap())
                                        : ts / g != prev / g;
      if (boundary) return i;
    }
    return n;
  };
  const size_t groups = std::max<size_t>(max_groups, 1);
  const size_t target =
      std::max(kMinWorkGroupTuples, (n + groups - 1) / groups);
  for (size_t c = next_cut(target); c + kMinWorkGroupTuples <= n;
       c = next_cut(c + target)) {
    cuts.push_back(c);
  }
  cuts.push_back(n);
  return cuts;
}

GpuOperator::GpuOperator(const Operator& batch_op, SimDevice* device)
    : Operator(&batch_op.query()), batch_op_(batch_op), device_(device) {}

void GpuOperator::ProcessBatch(const TaskContext& ctx, TaskResult* out) const {
  std::latch done(1);
  SubmitAsync(ctx, out, [&done] { done.count_down(); });
  done.wait();
}

void GpuOperator::SubmitAsync(const TaskContext& ctx, TaskResult* out,
                              std::function<void()> done) const {
  GpuJob* job = device_->AcquireJob();
  job->task_id = ctx.task_id;
  // Ship every span the batch operator reads: each input's batch and its
  // window history (non-empty for joins only; §4.1's free pointer keeps it
  // alive on the host).
  job->num_spans = 2 * ctx.num_inputs;
  for (int i = 0; i < ctx.num_inputs; ++i) {
    job->host_input[2 * i] = ctx.input[i].data;
    job->host_input[2 * i + 1] = ctx.input[i].history;
  }
  job->result = out;
  SimDevice* dev = device_;
  job->on_complete = [dev, done = std::move(done)](GpuJob* j) {
    dev->ReleaseJob(j);
    done();
  };
  job->kernel = [this, ctx](SimDevice& d, GpuJob& j) { Kernel(d, j, ctx); };
  device_->Submit(job);
}

void GpuOperator::Kernel(SimDevice& dev, GpuJob& j,
                         const TaskContext& host_ctx) const {
  // Point the task's spans at device memory, where copyin and movein laid
  // them out back to back in SubmitAsync's order.
  TaskContext ctx = host_ctx;
  const uint8_t* p = j.device_in.data();
  for (int i = 0; i < ctx.num_inputs; ++i) {
    for (SpanPair* s : {&ctx.input[i].data, &ctx.input[i].history}) {
      const size_t len = s->total();
      *s = SpanPair{p, len, nullptr, 0};
      p += len;
    }
  }

  const std::vector<size_t> cuts = WorkGroupCuts(
      *query_, ctx.input[0], static_cast<size_t>(dev.options().num_executors));
  const size_t ng = cuts.size() - 1;
  // Per-group results, kept with their capacity across tasks. Kernels run
  // only on the device's execute stage thread, so the staging is per
  // device. The executors reach it through `groups`: a lambda does not
  // capture a thread_local, it would name the executor's own instance.
  thread_local std::vector<TaskResult> staging;
  std::vector<TaskResult>& groups = staging;
  if (groups.size() < ng) groups.resize(ng);
  dev.ParallelFor(ng, [&](size_t g, size_t) {
    TaskResult& r = groups[g];
    r.Reset();
    batch_op_.ProcessBatch(
        ng == 1 ? ctx : GroupContext(ctx, cuts[g], cuts[g + 1]), &r);
  });

  // Concatenate in group order: [complete rows][pane partials], with each
  // group's pane offsets rebased onto the concatenated partials.
  size_t complete = 0, partials = 0;
  for (size_t g = 0; g < ng; ++g) {
    complete += groups[g].complete.size();
    partials += groups[g].partials.size();
  }
  j.device_out.Resize(complete + partials);
  uint8_t* out = j.device_out.data();
  size_t pane_base = 0;
  for (size_t g = 0; g < ng; ++g) {
    const TaskResult& r = groups[g];
    if (!r.complete.empty()) {
      std::memcpy(out, r.complete.data(), r.complete.size());
      out += r.complete.size();
    }
    for (PaneEntry e : r.panes) {
      e.offset += static_cast<uint32_t>(pane_base);
      j.panes.push_back(e);
    }
    pane_base += r.partials.size();
  }
  for (size_t g = 0; g < ng; ++g) {
    const TaskResult& r = groups[g];
    if (r.partials.empty()) continue;  // memcpy(_, null, 0) is still UB
    std::memcpy(out, r.partials.data(), r.partials.size());
    out += r.partials.size();
  }
  j.complete_bytes = complete;
  j.partials_bytes = partials;
  j.axis_p = groups[0].axis_p;
  j.axis_q = groups[ng - 1].axis_q;
}

}  // namespace saber
