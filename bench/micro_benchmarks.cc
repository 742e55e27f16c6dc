/// Component micro-benchmarks (google-benchmark): the building blocks whose
/// costs explain the figure-level results — per-tuple tree interpretation
/// vs compiled batch expression evaluation (the operators' predicate cost
/// in Figs. 8/10), circular-buffer
/// insertion (the dispatcher bound of §6.3), hash-table upserts (GROUP-BY),
/// pane math, and the modeled PCIe transfer.

#include <benchmark/benchmark.h>

#include "gpu/sim_device.h"
#include "relational/expression_compiler.h"
#include "relational/hash_table.h"
#include "relational/two_stacks.h"
#include "runtime/circular_buffer.h"
#include "runtime/strcat.h"
#include "udf/partition_join.h"
#include "workloads/synthetic.h"

namespace saber {
namespace {

std::vector<uint8_t> MakeData(size_t n) { return syn::Generate(n); }

ExprPtr MakePredicate(int n, const Schema& s) {
  std::vector<ExprPtr> preds;
  for (int i = 0; i < n; ++i) {
    preds.push_back(Eq(Col(s, StrCat("a", i % 5 + 2)), Lit(i)));
  }
  return n == 1 ? preds[0] : Or(std::move(preds));
}

void BM_InterpretedPredicate(benchmark::State& state) {
  Schema s = syn::SyntheticSchema();
  auto data = MakeData(4096);
  ExprPtr pred = MakePredicate(static_cast<int>(state.range(0)), s);
  size_t i = 0;
  for (auto _ : state) {
    TupleRef t(data.data() + (i++ % 4096) * 32, &s);
    benchmark::DoNotOptimize(pred->EvalBool(t, nullptr));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InterpretedPredicate)->Arg(1)->Arg(8)->Arg(32)->Arg(64);

void BM_CompiledPredicate(benchmark::State& state) {
  Schema s = syn::SyntheticSchema();
  constexpr size_t kTuples = 4096;
  auto data = MakeData(kTuples);
  ExprPtr pred = MakePredicate(static_cast<int>(state.range(0)), s);
  CompiledExpr prog = CompiledExpr::Compile(*pred, s);
  std::vector<uint32_t> sel(kTuples);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        prog.EvalBatchBool(data.data(), 32, kTuples, sel.data()));
    benchmark::DoNotOptimize(sel.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kTuples);
}
BENCHMARK(BM_CompiledPredicate)->Arg(1)->Arg(8)->Arg(32)->Arg(64);

void BM_CircularBufferInsert(benchmark::State& state) {
  CircularBuffer buf(64 << 20, 32);
  auto data = MakeData(state.range(0));
  for (auto _ : state) {
    if (!buf.TryInsert(data.data(), data.size())) {
      buf.FreeUpTo(buf.end());
      buf.TryInsert(data.data(), data.size());
    }
  }
  state.SetBytesProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_CircularBufferInsert)->Arg(1024)->Arg(32768);

void BM_GroupHashTableUpsert(benchmark::State& state) {
  GroupHashTable table(8, 2, 1 << 16);
  const int64_t keys = state.range(0);
  int64_t i = 0;
  uint8_t key[8];
  for (auto _ : state) {
    const int64_t k = i++ % keys;
    std::memcpy(key, &k, sizeof(k));
    AggState* aggs = table.Upsert(key, 0, i);
    AggAdd(&aggs[0], 1.0);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GroupHashTableUpsert)->Arg(64)->Arg(4096);

void BM_PaneAssignment(benchmark::State& state) {
  auto w = WindowDefinition::Count(1024, static_cast<int64_t>(state.range(0)));
  int64_t axis = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(PaneOfAxis(w, axis));
    benchmark::DoNotOptimize(WindowEndingAtPane(w, axis / w.pane_size()));
    ++axis;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PaneAssignment)->Arg(1)->Arg(256)->Arg(1024);

void BM_PcieTransfer(benchmark::State& state) {
  SimDeviceOptions o;
  o.pace_transfers = true;
  SimDevice dev(o);
  const size_t bytes = static_cast<size_t>(state.range(0));
  std::vector<uint8_t> data(bytes, 1);
  std::vector<TaskResult> results(64);
  size_t r = 0;
  for (auto _ : state) {
    GpuJob* job = dev.AcquireJob();
    job->num_spans = 1;
    job->host_input[0] = SpanPair{data.data(), bytes, nullptr, 0};
    job->result = &results[r++ % results.size()];
    job->kernel = [](SimDevice&, GpuJob&) {};
    SimDevice* d = &dev;
    job->on_complete = [d](GpuJob* j) { d->ReleaseJob(j); };
    dev.Submit(job);
  }
  state.SetBytesProcessed(state.iterations() * bytes);
}
BENCHMARK(BM_PcieTransfer)->Arg(64 << 10)->Arg(1 << 20);

/// Sliding non-invertible aggregation over panes: two-stacks [50] versus
/// re-merging the window's panes at every slide. Arg = panes per window.
void BM_TwoStacksSlide(benchmark::State& state) {
  const int64_t ppw = state.range(0);
  TwoStacksAggregator ts(1);
  AggState s;
  int64_t pane = 0;
  // Pre-fill one window.
  for (; pane < ppw; ++pane) {
    AggInit(&s);
    AggAdd(&s, static_cast<double>(pane % 97));
    ts.Push(pane, &s);
  }
  AggState out;
  for (auto _ : state) {
    AggInit(&s);
    AggAdd(&s, static_cast<double>(pane % 97));
    ts.Push(pane, &s);
    ts.EvictBefore(pane - ppw + 1);
    AggInit(&out);
    ts.Query(&out);
    benchmark::DoNotOptimize(out);
    ++pane;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TwoStacksSlide)->Arg(8)->Arg(256)->Arg(4096);

void BM_RemergeSlide(benchmark::State& state) {
  const int64_t ppw = state.range(0);
  std::vector<AggState> panes(ppw);
  for (int64_t p = 0; p < ppw; ++p) {
    AggInit(&panes[p]);
    AggAdd(&panes[p], static_cast<double>(p % 97));
  }
  AggState out;
  for (auto _ : state) {
    AggInit(&out);
    for (const AggState& p : panes) AggMerge(&out, p);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RemergeSlide)->Arg(8)->Arg(256)->Arg(4096);

/// Partition-join window evaluation (hash partition + probe) per window.
/// Arg = tuples per window side.
void BM_PartitionJoinWindow(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Schema s = syn::SyntheticSchema();
  syn::GeneratorOptions go;
  go.attr_range = 100'000;  // sparse keys: output stays small
  go.seed = 3;
  auto l = syn::Generate(n, go);
  go.seed = 4;
  auto r = syn::Generate(n, go);
  PartitionJoinUdf udf(Col(s, "a4"), Col(s, "a4"));
  WindowView views[2] = {WindowView{&s, l.data(), n},
                         WindowView{&s, r.data(), n}};
  ByteBuffer out;
  for (auto _ : state) {
    out.Clear();
    udf.OnWindow(views, 2, 0, &out);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations() * n * 2);
}
BENCHMARK(BM_PartitionJoinWindow)->Arg(1024)->Arg(16384);

}  // namespace
}  // namespace saber

BENCHMARK_MAIN();
