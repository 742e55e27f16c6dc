/// Ablations for the design choices DESIGN.md calls out (not a paper figure;
/// complements §6):
///   (a) GPGPU pipeline depth — Fig. 6's five-stage pipelining vs a
///       depth-1 (serialized) pipeline;
///   (b) HLS lookahead — Alg. 1's delay-based stealing vs lookahead 1
///       (pure preference + switch threshold);
///   (c) two-stacks assembly [50] vs forced re-merge for AGGmax at a fine
///       slide — incremental sliding-window assembly vs merge-per-window.

#include "bench_util.h"
#include "workloads/synthetic.h"

using namespace saber;
using namespace saber::bench;

int main() {
  auto data = syn::Generate(4'000'000);

  // (a) pipeline depth.
  PrintHeader("Ablation A — GPGPU pipeline depth (SELECT16, GPGPU-only)",
              {"depth", "GB/s"});
  for (size_t depth : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    EngineOptions o = DefaultOptions(0, true);
    o.device.pipeline_depth = depth;
    QueryDef def = syn::MakeSelection(16, 100, WindowDefinition::Count(1024, 1024));
    RunResult r = RunSaber(o, def, data, 2);
    PrintCell(static_cast<double>(depth));
    PrintCell(r.gbps());
    EndRow();
  }
  std::printf("Expected: depth 1 serializes DMA against kernels (§5.2); "
              "depth >= 4 overlaps them.\n");

  // (b) HLS lookahead.
  PrintHeader("Ablation B — HLS lookahead (PROJ6* + GROUP-BY1 mix)",
              {"lookahead", "aggregate GB/s"});
  QueryDef q1 = syn::MakeProjection(6, 100, WindowDefinition::Count(1024, 1024));
  QueryDef q2 = syn::MakeGroupBy(1, WindowDefinition::Count(1024, 512));
  for (size_t lookahead : {size_t{1}, size_t{8}, size_t{64}}) {
    EngineOptions o = DefaultOptions();
    o.hls_lookahead = lookahead;
    Engine engine(o);
    QueryHandle* ha = engine.AddQuery(q1);
    QueryHandle* hb = engine.AddQuery(q2);
    engine.Start();
    Stopwatch wall;
    StreamFeeder feeder(ha->def().input_schema[0], data);
    feeder.Feed(ha, 0, 1, false);
    feeder.Feed(hb, 0, 1, false);
    engine.Drain();
    PrintCell(static_cast<double>(lookahead));
    PrintCell((ha->bytes_in() + hb->bytes_in()) / wall.ElapsedSeconds() /
              (1 << 30));
    EndRow();
  }
  std::printf("Expected: lookahead > 1 lets idle processors steal delayed "
              "tasks (Alg. 1 line 6).\n");

  // (c) two-stacks vs re-merge. The window spans 256 panes (slide 4), so
  // re-merge does 256 pane merges per emitted window while two-stacks
  // amortizes to O(1).
  PrintHeader("Ablation C — two-stacks [50] vs re-merge for AGGmax "
              "(w 32KB, slide 128B)",
              {"assembly", "GB/s"});
  for (auto [name, mode] : {std::pair<const char*, AssemblyMode>{
                                "two-stacks (auto)", AssemblyMode::kAuto},
                            {"re-merge (forced)", AssemblyMode::kRemergeOnly}}) {
    QueryDef def = syn::MakeAggregation(AggregateFunction::kMax,
                                        WindowDefinition::Count(1024, 4));
    def.assembly_mode = mode;
    RunResult r = RunSaber(DefaultOptions(), def, data, 2);
    PrintCell(std::string(name));
    PrintCell(r.gbps());
    EndRow();
  }
  std::printf("Expected: two-stacks sustains the fine slide; re-merge "
              "collapses under 256 pane merges per window.\n");
  return 0;
}
