/// Figure 16: HLS adaptation to workload changes. A SELECT500-style query
/// (p1 AND (p2 OR ... OR p500)) filters task-failure events from the cluster
/// trace; during failure surges the gate matches often, every surviving
/// tuple evaluates 499 more predicates, and the per-task cost jumps. The
/// throughput matrix refreshes every 100 ms (§6.6); HLS shifts tasks toward
/// the GPGPU during the surges. Prints a per-second time series of
/// throughput and the GPGPU share of processed bytes.

#include <atomic>
#include <thread>

#include "bench_util.h"
#include "workloads/cluster_monitoring.h"

using namespace saber;
using namespace saber::bench;

int main() {
  cm::TraceOptions t;
  t.events_per_second = 400'000;
  t.base_failure_probability = 0.005;
  t.surges = {{8, 16, 0.85}, {24, 32, 0.85}};
  const size_t num_events = 6'000'000;  // 15 s of event time per pass
  auto trace = cm::GenerateTrace(num_events, t);

  Schema s = cm::TaskEventSchema();
  std::vector<ExprPtr> rest;
  for (int i = 0; i < 499; ++i) {
    rest.push_back(
        Eq(Mod(Add(Col(s, "priority"), Lit(i)), Lit(1 << 20)), Lit(-1)));
  }
  QueryDef def = QueryBuilder("SELECT500", s)
                     .Where(And({Eq(Col(s, "eventType"), Lit(cm::kFail)),
                                 Or(std::move(rest))}))
                     .Build();

  EngineOptions o = DefaultOptions(6, true, 512 << 10);
  o.switch_threshold = 16;
  Engine engine(o);
  QueryHandle* q = engine.AddQuery(def);
  engine.Start();

  std::atomic<bool> done{false};
  PrintHeader("Fig. 16 — HLS adaptation to selectivity surges",
              {"t(s)", "GB/s", "GPGPU share", "C(q,CPU)", "C(q,GPGPU)"});
  std::thread sampler([&] {
    int64_t prev_bytes = 0, prev_cpu = 0, prev_gpu = 0;
    int second = 0;
    while (!done.load()) {
      std::this_thread::sleep_for(std::chrono::seconds(1));
      const int64_t cpu_b = q->bytes_on(Processor::kCpu);
      const int64_t gpu_b = q->bytes_on(Processor::kGpu);
      const int64_t bytes = cpu_b + gpu_b;
      PrintCell(static_cast<double>(++second));
      PrintCell(static_cast<double>(bytes - prev_bytes) / (1 << 30));
      const int64_t dc = cpu_b - prev_cpu, dg = gpu_b - prev_gpu;
      PrintCell(dc + dg > 0 ? static_cast<double>(dg) / (dc + dg) : 0.0);
      PrintCell(engine.matrix().Rate(0, Processor::kCpu));
      PrintCell(engine.matrix().Rate(0, Processor::kGpu));
      EndRow();
      prev_bytes = bytes;
      prev_cpu = cpu_b;
      prev_gpu = gpu_b;
    }
  });

  StreamFeeder feeder(s, trace);
  feeder.Feed(q, 0, 2);
  engine.Drain();
  done.store(true);
  sampler.join();

  std::printf("\nExpected shape: the GPGPU share and the matrix row shift "
              "during surge seconds (trace surges at event-time 8-16 and "
              "24-32) and revert between them (Fig. 16).\n");
  return 0;
}
