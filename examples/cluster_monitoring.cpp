/// Cluster monitoring (§6.1, Appendix A.1): run CM1 and CM2 concurrently
/// over a synthetic Google-cluster-style event trace, including a failure
/// surge, and report per-query throughput, output and the CPU/GPGPU split
/// chosen by the HLS scheduler.

#include <cstdio>

#include "core/engine.h"
#include "runtime/clock.h"
#include "workloads/cluster_monitoring.h"

using namespace saber;

int main() {
  cm::TraceOptions trace_opts;
  trace_opts.events_per_second = 50'000;
  trace_opts.surges = {{20, 30, 0.8}};  // failure storm in seconds 20..30
  const size_t num_events = 3'000'000;  // 60 seconds of trace
  std::printf("generating %zu cluster events (with failure surge)...\n",
              num_events);
  auto trace = cm::GenerateTrace(num_events, trace_opts);

  EngineOptions options;
  options.num_cpu_workers = 6;
  options.use_gpu = true;
  options.task_size = 512 * 1024;

  Engine engine(options);
  QueryHandle* cm1 = engine.AddQuery(cm::MakeCM1());
  QueryHandle* cm2 = engine.AddQuery(cm::MakeCM2());

  // CM1 output: total requested CPU per scheduling category, sliding 60s/1s.
  const Schema& out1 = cm1->output_schema();
  int64_t last_printed_ts = -1;
  cm1->SetSink([&](const uint8_t* rows, size_t bytes) {
    for (size_t off = 0; off < bytes; off += out1.tuple_size()) {
      TupleRef row(rows + off, &out1);
      if (row.timestamp() > last_printed_ts && row.GetInt64(1) == 0) {
        last_printed_ts = row.timestamp();
        if (last_printed_ts % 20 == 0) {
          std::printf("  CM1 @%3llds: category 0 totalCpu=%8.1f\n",
                      static_cast<long long>(last_printed_ts),
                      row.GetDouble(2));
        }
      }
    }
  });

  engine.Start();
  Stopwatch wall;
  const size_t chunk = 4096 * 64;
  for (size_t off = 0; off < trace.size(); off += chunk) {
    const size_t n = std::min(chunk, trace.size() - off);
    cm1->Insert(trace.data() + off, n);
    cm2->Insert(trace.data() + off, n);
  }
  engine.Drain();
  const double secs = wall.ElapsedSeconds();

  auto report = [&](const char* name, QueryHandle* q) {
    const double gb = static_cast<double>(q->bytes_in()) / (1 << 30);
    const int64_t cpu = q->bytes_on(Processor::kCpu);
    const int64_t gpu = q->bytes_on(Processor::kGpu);
    const obs::Histogram& lat = q->latency();
    std::printf(
        "%-4s: %6.2f GB in %.2fs = %6.2f GB/s | rows out %-9lld | "
        "GPGPU share %4.1f%% | latency count=%lld mean=%.1fus p50=%.1fus "
        "p99=%.1fus max=%.1fus\n",
        name, gb, secs, gb / secs, static_cast<long long>(q->rows_out()),
        100.0 * gpu / std::max<int64_t>(cpu + gpu, 1),
        static_cast<long long>(lat.count()),
        lat.sum() / 1e3 / static_cast<double>(std::max<int64_t>(lat.count(), 1)),
        lat.Percentile(50) / 1e3, lat.Percentile(99) / 1e3, lat.max() / 1e3);
  };
  std::printf("\n");
  report("CM1", cm1);
  report("CM2", cm2);
  return 0;
}
