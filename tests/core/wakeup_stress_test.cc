#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "reference/reference.h"
#include "test_util.h"
#include "workloads/synthetic.h"

/// \file wakeup_stress_test.cc
/// Races the engine's event-driven wakeup paths (run under the TSan preset
/// in CI): InsertInto back-pressure (the circular buffer's free-epoch
/// channel), Drain (the assembly-generation channel), GPGPU completions
/// (the worker's single event-queue select) and the task queue's
/// per-processor eligibility wakeups, concurrently across multiple queries.
/// A lost wakeup anywhere deadlocks the test instead of timing out a sleep:
/// there are no sleeps in the assertion path, only the CTest timeout bounds
/// the wall-clock.

namespace saber {
namespace {

using testing::BuffersEqual;

TEST(WakeupStress, BackpressureDrainAndGpuCompletionsAcrossQueries) {
  // Two queries with 16 KB input buffers fed 640 KB each from concurrent
  // producers: every chunk insertion rides the back-pressure wait, every
  // task result is raced between CPU workers and the GPGPU event loop, and
  // the final Drain exercises the drained channel while assemblies are
  // still in flight.
  constexpr size_t kTuples = 20000;
  QueryDef agg = syn::MakeAggregation(AggregateFunction::kSum,
                                      WindowDefinition::Count(64, 16));
  QueryDef sel = syn::MakeSelection(2, 10, WindowDefinition::Count(64, 64));
  const auto data0 = syn::Generate(kTuples, {.seed = 7});
  const auto data1 = syn::Generate(kTuples, {.seed = 11});
  ByteBuffer want0 = ReferenceEvaluate(agg, data0);
  ByteBuffer want1 = ReferenceEvaluate(sel, data1);

  EngineOptions o;
  o.num_cpu_workers = 2;
  o.use_gpu = true;
  o.device.pace_transfers = false;
  o.device.num_executors = 2;
  o.task_size = 1024;
  o.input_buffer_size = 16 * 1024;
  Engine engine(o);
  QueryHandle* h0 = engine.AddQuery(agg);
  QueryHandle* h1 = engine.AddQuery(sel);
  ByteBuffer got0, got1;
  h0->SetSink([&](const uint8_t* d, size_t n) { got0.Append(d, n); });
  h1->SetSink([&](const uint8_t* d, size_t n) { got1.Append(d, n); });
  engine.Start();

  auto feed = [](QueryHandle* h, const std::vector<uint8_t>& data,
                 size_t chunk_tuples) {
    const size_t tsz = h->def().input_schema[0].tuple_size();
    const size_t chunk = chunk_tuples * tsz;
    for (size_t off = 0; off < data.size(); off += chunk) {
      h->Insert(data.data() + off, std::min(chunk, data.size() - off));
    }
  };
  // Odd-sized chunks so task boundaries and buffer wrap points drift.
  std::thread p0([&] { feed(h0, data0, 97); });
  std::thread p1([&] { feed(h1, data1, 131); });
  p0.join();
  p1.join();
  engine.Drain();

  EXPECT_EQ(h0->tuples_in(), static_cast<int64_t>(kTuples));
  EXPECT_EQ(h1->tuples_in(), static_cast<int64_t>(kTuples));
  EXPECT_TRUE(BuffersEqual(got0, want0, agg.output_schema.tuple_size()));
  EXPECT_TRUE(BuffersEqual(got1, want1, sel.output_schema.tuple_size()));
}

TEST(WakeupStress, PacedGpuCompletionsWakeDrain) {
  // GPGPU-only with transfer pacing on: completions arrive on device-stage
  // threads well after the producer finished, so Drain must sleep on the
  // drained channel and be woken by each assembly batch (a lost wakeup
  // hangs here).
  constexpr size_t kTuples = 8000;
  QueryDef agg = syn::MakeAggregation(AggregateFunction::kCount,
                                      WindowDefinition::Count(128, 128));
  const auto data = syn::Generate(kTuples, {.seed = 13});
  ByteBuffer want = ReferenceEvaluate(agg, data);

  EngineOptions o;
  o.num_cpu_workers = 0;
  o.use_gpu = true;
  o.device.pace_transfers = true;
  o.device.num_executors = 2;
  o.task_size = 2048;
  o.input_buffer_size = 1 << 20;
  Engine engine(o);
  QueryHandle* h = engine.AddQuery(agg);
  ByteBuffer got;
  h->SetSink([&](const uint8_t* d, size_t n) { got.Append(d, n); });
  engine.Start();
  h->Insert(data.data(), data.size());
  engine.Drain();

  EXPECT_EQ(h->tasks_on(Processor::kCpu), 0);
  EXPECT_GT(h->tasks_on(Processor::kGpu), 0);
  EXPECT_TRUE(BuffersEqual(got, want, agg.output_schema.tuple_size()));
}

TEST(WakeupStress, ChainedSinkDispatchSurvivesClosedSlotGate) {
  // With connected queries, a worker holding the upstream assembly token
  // dispatches downstream tasks from inside the result stage (sink ->
  // InsertInto -> cut). A deadlock once observed under TSan had that
  // dispatch block on a full task queue while every other worker refused
  // the queued tasks. Now the cut never waits: once the downstream query
  // has kSlots tasks outstanding, the gate leaves its input in the buffer
  // and the worker that frees a slot re-drives the cut. A 1/64 scheduling
  // weight has HLS serve the downstream query a sliver of the upstream's
  // bytes, so its backlog outgrows its result slots and the gate closes
  // in worker context, in the upstream assembly's cut. (A slow downstream
  // operator alone does not do it: HLS serves equal weights equal bytes,
  // and each upstream task feeds the downstream half a task.)
  constexpr size_t kTuples = 16000;
  QueryDef up = syn::MakeProjection(2);
  const auto data = syn::Generate(kTuples, {.seed = 23});
  QueryDef down = QueryBuilder("chain_agg", up.output_schema)
                      .Window(WindowDefinition::Count(64, 64))
                      .Aggregate(AggregateFunction::kSum,
                                 Col(up.output_schema, "a1_out"), "s")
                      .Build();
  down.weight = 1.0 / 64;

  EngineOptions o;
  o.num_cpu_workers = 2;
  o.use_gpu = true;
  o.device.pace_transfers = false;
  o.device.num_executors = 2;
  o.task_size = 1024;
  Engine engine(o);
  QueryHandle* hu = engine.AddQuery(up);
  QueryHandle* hd = engine.AddQuery(down);
  engine.Connect(hu, hd);
  std::atomic<int64_t> out_bytes{0};
  hd->SetSink([&](const uint8_t*, size_t n) {
    out_bytes.fetch_add(static_cast<int64_t>(n));
  });
  engine.Start();
  const size_t tsz = up.input_schema[0].tuple_size();
  const size_t chunk = 113 * tsz;
  for (size_t off = 0; off < data.size(); off += chunk) {
    hu->Insert(data.data() + off, std::min(chunk, data.size() - off));
  }
  engine.Drain();  // wedges here if a deferred cut is never re-driven

  EXPECT_EQ(hu->tuples_in(), static_cast<int64_t>(kTuples));
  EXPECT_EQ(hd->tuples_in(), hu->rows_out());
  EXPECT_GT(out_bytes.load(), 0);
}

TEST(WakeupStress, StopUnblocksBackpressuredProducer) {
  // A producer stuck on a full input buffer must be released by Stop() via
  // the free-epoch wake, not by a timed retry (a 4 KB buffer with the GPGPU
  // disabled and one CPU worker keeps pressure on).
  QueryDef sel = syn::MakeSelection(1, 10, WindowDefinition::Count(64, 64));
  const auto data = syn::Generate(4096, {.seed = 17});

  EngineOptions o;
  o.num_cpu_workers = 1;
  o.use_gpu = false;
  o.task_size = 512;
  o.input_buffer_size = 4096;
  Engine engine(o);
  QueryHandle* h = engine.AddQuery(sel);
  engine.Start();
  std::atomic<bool> done{false};
  std::thread producer([&] {
    h->Insert(data.data(), data.size());  // far larger than the buffer
    done.store(true);
  });
  // Stop while the producer is (very likely) blocked mid-insert; it must
  // observe stopping_ and return. Correctness does not depend on the exact
  // interleaving — any phase of Insert must unblock.
  engine.Stop();
  producer.join();  // hangs if the cancellation wakeup is lost
  EXPECT_TRUE(done.load());
}

}  // namespace
}  // namespace saber
