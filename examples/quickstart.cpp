/// Quickstart: build a windowed streaming SQL query, run it on the hybrid
/// CPU+GPGPU engine, and read the ordered output stream.
///
///   select timestamp, avg(a1) as load
///   from SyntheticStream [range 256 slide 64]   -- count-based window
///   where a2 > 20
///
/// Build & run:  ./build/examples/quickstart

#include <algorithm>
#include <cstdio>

#include "core/engine.h"
#include "workloads/synthetic.h"

using namespace saber;

int main() {
  // 1. Describe the input stream: 32-byte tuples, timestamp + 6 attributes.
  Schema schema = syn::SyntheticSchema();
  std::printf("input schema : %s\n", schema.ToString().c_str());

  // 2. Build the query with the fluent builder.
  QueryDef query = QueryBuilder("quickstart", schema)
                       .Window(WindowDefinition::Count(256, 64))
                       .Where(Gt(Col(schema, "a2"), Lit(20)))
                       .Aggregate(AggregateFunction::kAvg, Col(schema, "a1"),
                                  "load")
                       .Build();
  std::printf("output schema: %s\n", query.output_schema.ToString().c_str());

  // 3. Configure the engine: 4 CPU workers plus the simulated GPGPU.
  EngineOptions options;
  options.num_cpu_workers = 4;
  options.use_gpu = true;
  options.task_size = 64 * 1024;  // query task size (a physical knob, §3)

  Engine engine(options);
  QueryHandle* q = engine.AddQuery(query);

  // 4. Attach an ordered output sink.
  int64_t printed = 0;
  const Schema& out = q->output_schema();
  q->SetSink([&](const uint8_t* rows, size_t bytes) {
    for (size_t off = 0; off < bytes; off += out.tuple_size()) {
      TupleRef row(rows + off, &out);
      if (printed < 5) {
        std::printf("  window result: ts=%-6lld load=%.2f\n",
                    static_cast<long long>(row.timestamp()), row.GetDouble(1));
      }
      ++printed;
    }
  });

  // 5. Start, feed one million tuples, drain.
  engine.Start();
  auto data = syn::Generate(1'000'000);
  q->Insert(data.data(), data.size());
  engine.Drain();

  std::printf("...\n");
  std::printf("windows emitted : %lld\n", static_cast<long long>(printed));
  std::printf("tasks on CPU    : %lld\n",
              static_cast<long long>(q->tasks_on(Processor::kCpu)));
  std::printf("tasks on GPGPU  : %lld\n",
              static_cast<long long>(q->tasks_on(Processor::kGpu)));
  const obs::Histogram& lat = q->latency();
  std::printf(
      "task latency    : count=%lld mean=%.1fus p50=%.1fus p99=%.1fus "
      "max=%.1fus\n",
      static_cast<long long>(lat.count()),
      lat.sum() / 1e3 / static_cast<double>(std::max<int64_t>(lat.count(), 1)),
      lat.Percentile(50) / 1e3, lat.Percentile(99) / 1e3, lat.max() / 1e3);
  return 0;
}
