/// Adaptive scheduling demo (§6.6, Fig. 16): a SELECT-style query whose cost
/// depends on data selectivity runs over a cluster trace with failure
/// surges. The HLS scheduler observes per-processor task throughput (100 ms
/// matrix refresh) and shifts work between the CPU and the GPGPU as the
/// surge raises and lowers the query's per-tuple cost.

#include <cstdio>
#include <thread>

#include "core/engine.h"
#include "runtime/clock.h"
#include "workloads/cluster_monitoring.h"
#include "workloads/synthetic.h"

using namespace saber;

int main() {
  // Trace: failure surges every 10 seconds.
  cm::TraceOptions trace_opts;
  trace_opts.events_per_second = 200'000;
  trace_opts.base_failure_probability = 0.01;
  trace_opts.surges = {{5, 10, 0.9}, {15, 20, 0.9}, {25, 30, 0.9}};
  const size_t num_events = 6'000'000;  // 30 seconds
  auto trace = cm::GenerateTrace(num_events, trace_opts);

  // Fig. 16's query shape: p1 AND (p2 OR ... OR p500) — when the gate p1
  // (a failure event) matches, all remaining predicates are evaluated.
  Schema s = cm::TaskEventSchema();
  std::vector<ExprPtr> rest;
  for (int i = 0; i < 499; ++i) {
    rest.push_back(Eq(Mod(Add(Col(s, "priority"), Lit(i)), Lit(1 << 20)),
                      Lit(-1)));
  }
  QueryDef query = QueryBuilder("SELECT500", s)
                       .Where(And({Eq(Col(s, "eventType"), Lit(cm::kFail)),
                                   Or(std::move(rest))}))
                       .Build();

  EngineOptions options;
  options.num_cpu_workers = 4;
  options.use_gpu = true;
  options.task_size = 256 * 1024;
  options.switch_threshold = 16;

  Engine engine(options);
  QueryHandle* q = engine.AddQuery(query);
  engine.Start();

  // Sampler thread: once per second, report throughput and the GPGPU share.
  std::atomic<bool> done{false};
  std::thread sampler([&] {
    int64_t prev_bytes = 0, prev_cpu = 0, prev_gpu = 0;
    int second = 0;
    std::printf("%4s %12s %10s %10s\n", "t(s)", "GB/s", "GPU-share",
                "C(q,*) cpu:gpu");
    while (!done.load()) {
      std::this_thread::sleep_for(std::chrono::seconds(1));
      const int64_t bytes = q->bytes_on(Processor::kCpu) +
                            q->bytes_on(Processor::kGpu);
      const int64_t cpu = q->tasks_on(Processor::kCpu);
      const int64_t gpu = q->tasks_on(Processor::kGpu);
      const double gbps = static_cast<double>(bytes - prev_bytes) / (1 << 30);
      const int64_t dcpu = cpu - prev_cpu, dgpu = gpu - prev_gpu;
      std::printf("%4d %12.2f %9.1f%% %7.0f:%-7.0f\n", ++second, gbps,
                  100.0 * dgpu / std::max<int64_t>(dcpu + dgpu, 1),
                  engine.matrix().Rate(0, Processor::kCpu),
                  engine.matrix().Rate(0, Processor::kGpu));
      prev_bytes = bytes;
      prev_cpu = cpu;
      prev_gpu = gpu;
    }
  });

  const size_t chunk = 4096 * 64;
  for (size_t off = 0; off < trace.size(); off += chunk) {
    q->Insert(trace.data() + off, std::min(chunk, trace.size() - off));
  }
  engine.Drain();
  done.store(true);
  sampler.join();

  std::printf("\nfinal split: CPU %lld tasks, GPGPU %lld tasks\n",
              static_cast<long long>(q->tasks_on(Processor::kCpu)),
              static_cast<long long>(q->tasks_on(Processor::kGpu)));
  std::printf("rows out: %lld (failure events pass the gate)\n",
              static_cast<long long>(q->rows_out()));
  return 0;
}
