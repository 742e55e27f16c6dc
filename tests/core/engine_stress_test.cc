#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "reference/reference.h"
#include "test_util.h"
#include "workloads/synthetic.h"

/// Stress and failure-injection tests: the engine under resource pressure
/// (a closed slot gate, tiny buffers), abrupt shutdown, concurrent multi-query
/// load, and degenerate configurations. Correctness is still byte-exact
/// against the reference wherever the run completes.

namespace saber {
namespace {

using testing::BuffersEqual;

TEST(EngineStress, SlotGateClosesInProducerContext) {
  // One insert at φ = 1024 B needs about 937 tasks, far more than the
  // query's 128 result slots: the producer's cut stops at the gate, and the
  // workers that free slots re-drive the rest. Output must still be exact.
  Schema s = syn::SyntheticSchema();
  QueryDef q = syn::MakeGroupBy(4, WindowDefinition::Count(128, 32));
  auto data = syn::Generate(30000);
  ByteBuffer want = ReferenceEvaluate(q, data);

  EngineOptions o;
  o.num_cpu_workers = 2;
  o.use_gpu = true;
  o.device.pace_transfers = false;
  o.task_size = 1024;
  Engine engine(o);
  QueryHandle* h = engine.AddQuery(q);
  ByteBuffer got;
  h->SetSink([&](const uint8_t* d, size_t m) { got.Append(d, m); });
  engine.Start();
  h->Insert(data.data(), data.size());
  engine.Drain();
  EXPECT_TRUE(BuffersEqual(got, want, q.output_schema.tuple_size()));
}

TEST(EngineStress, TinyInputBufferBackpressure) {
  // Input buffer of 16 KB with 1 MB of stream data: Insert must block on the
  // free pointer and never corrupt in-flight task spans.
  Schema s = syn::SyntheticSchema();
  QueryDef q = syn::MakeSelection(2, 10, WindowDefinition::Count(64, 64));
  auto data = syn::Generate(32768);
  ByteBuffer want = ReferenceEvaluate(q, data);

  EngineOptions o;
  o.num_cpu_workers = 2;
  o.use_gpu = false;
  o.task_size = 2048;
  o.input_buffer_size = 16384;
  Engine engine(o);
  QueryHandle* h = engine.AddQuery(q);
  ByteBuffer got;
  h->SetSink([&](const uint8_t* d, size_t m) { got.Append(d, m); });
  engine.Start();
  const size_t chunk = 4096;
  for (size_t off = 0; off < data.size(); off += chunk) {
    h->Insert(data.data() + off, std::min(chunk, data.size() - off));
  }
  engine.Drain();
  EXPECT_TRUE(BuffersEqual(got, want, q.output_schema.tuple_size()));
}

TEST(EngineStress, SingleInsertLargerThanInputBuffer) {
  // One Insert call whose block exceeds the circular buffer must be chunked
  // internally and block on back-pressure, not spin forever.
  Schema s = syn::SyntheticSchema();
  QueryDef q = syn::MakeAggregation(AggregateFunction::kSum,
                                    WindowDefinition::Count(256, 64));
  auto data = syn::Generate(65536);  // 2 MB
  ByteBuffer want = ReferenceEvaluate(q, data);

  EngineOptions o;
  o.num_cpu_workers = 2;
  o.use_gpu = false;
  o.task_size = 8192;
  o.input_buffer_size = 512 * 1024;  // 4x smaller than the block
  Engine engine(o);
  QueryHandle* h = engine.AddQuery(q);
  ByteBuffer got;
  h->SetSink([&](const uint8_t* d, size_t m) { got.Append(d, m); });
  engine.Start();
  h->Insert(data.data(), data.size());  // single oversized call
  engine.Drain();
  EXPECT_TRUE(BuffersEqual(got, want, q.output_schema.tuple_size()));
}

TEST(EngineStress, StopMidStreamAbandonsCleanly) {
  // Stop() while the producer is mid-stream: pending tasks are abandoned,
  // destructors run, and no crash/hang/leak occurs (ASAN-clean by design:
  // pooled objects are returned on Stop).
  Schema s = syn::SyntheticSchema();
  QueryDef q = syn::MakeAggregation(AggregateFunction::kAvg,
                                    WindowDefinition::Count(256, 64));
  auto data = syn::Generate(200000);

  EngineOptions o;
  o.num_cpu_workers = 2;
  o.use_gpu = true;
  o.device.pace_transfers = false;
  o.task_size = 1024;
  Engine engine(o);
  QueryHandle* h = engine.AddQuery(q);
  std::atomic<int64_t> rows{0};
  h->SetSink([&](const uint8_t*, size_t m) { rows.fetch_add(m); });
  engine.Start();

  std::thread producer([&] {
    const size_t chunk = 8192;
    for (size_t off = 0; off < data.size(); off += chunk) {
      h->Insert(data.data() + off, std::min(chunk, data.size() - off));
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  engine.Stop();
  producer.join();
  SUCCEED();  // reaching here without deadlock/crash is the assertion
}

TEST(EngineStress, DestructorWithoutStartOrAfterStop) {
  Schema s = syn::SyntheticSchema();
  {
    Engine engine{EngineOptions{}};
    engine.AddQuery(syn::MakeSelection(1, 10, WindowDefinition::Count(8, 8)));
    // Never started.
  }
  {
    EngineOptions o;
    o.num_cpu_workers = 1;
    o.use_gpu = false;
    Engine engine(o);
    QueryHandle* h =
        engine.AddQuery(syn::MakeSelection(1, 10, WindowDefinition::Count(8, 8)));
    engine.Start();
    auto data = syn::Generate(100);
    h->Insert(data.data(), data.size());
    engine.Stop();
    // Destructor after explicit Stop.
  }
  SUCCEED();
}

TEST(EngineStress, ManyQueriesConcurrentProducers) {
  // 6 queries with different operators fed by 6 producer threads through one
  // engine; every output must match its reference.
  Schema s = syn::SyntheticSchema();
  std::vector<QueryDef> defs;
  defs.push_back(syn::MakeProjection(2, 1, WindowDefinition::Count(32, 32)));
  defs.push_back(syn::MakeSelection(4, 10, WindowDefinition::Count(64, 64)));
  defs.push_back(syn::MakeAggregation(AggregateFunction::kSum,
                                      WindowDefinition::Count(128, 32)));
  defs.push_back(syn::MakeAggregation(AggregateFunction::kMax,
                                      WindowDefinition::Time(40, 8)));
  defs.push_back(syn::MakeGroupBy(6, WindowDefinition::Count(96, 24)));
  defs.push_back(syn::MakeGroupBy(3, WindowDefinition::Time(25, 25)));

  auto data = syn::Generate(20000);
  std::vector<ByteBuffer> want(defs.size());
  for (size_t i = 0; i < defs.size(); ++i) {
    want[i] = ReferenceEvaluate(defs[i], data);
  }

  EngineOptions o;
  o.num_cpu_workers = 4;
  o.use_gpu = true;
  o.device.pace_transfers = false;
  o.task_size = 2048;
  Engine engine(o);
  std::vector<QueryHandle*> handles;
  std::vector<ByteBuffer> got(defs.size());
  for (size_t i = 0; i < defs.size(); ++i) {
    handles.push_back(engine.AddQuery(defs[i]));
    ByteBuffer* dst = &got[i];
    handles[i]->SetSink([dst](const uint8_t* d, size_t m) { dst->Append(d, m); });
  }
  engine.Start();
  std::vector<std::thread> producers;
  for (QueryHandle* h : handles) {
    producers.emplace_back([&, h] {
      const size_t chunk = 1600 * 32;
      for (size_t off = 0; off < data.size(); off += chunk) {
        h->Insert(data.data() + off, std::min(chunk, data.size() - off));
      }
    });
  }
  for (auto& t : producers) t.join();
  engine.Drain();
  for (size_t i = 0; i < defs.size(); ++i) {
    EXPECT_TRUE(
        BuffersEqual(got[i], want[i], defs[i].output_schema.tuple_size()))
        << "query " << i << " (" << defs[i].name << ")";
  }
}

TEST(EngineStress, PacedAndUnpacedDeviceAgree) {
  // Transfer pacing is a *timing* model; it must never change results.
  Schema s = syn::SyntheticSchema();
  QueryDef q = syn::MakeGroupBy(8, WindowDefinition::Count(200, 50));
  auto data = syn::Generate(15000);
  ByteBuffer outs[2];
  for (int paced = 0; paced < 2; ++paced) {
    EngineOptions o;
    o.num_cpu_workers = 0;  // GPGPU-only: every task crosses the device
    o.use_gpu = true;
    o.device.pace_transfers = paced == 1;
    o.task_size = 4096;
    Engine engine(o);
    QueryHandle* h = engine.AddQuery(q);
    ByteBuffer* dst = &outs[paced];
    h->SetSink([dst](const uint8_t* d, size_t m) { dst->Append(d, m); });
    engine.Start();
    h->Insert(data.data(), data.size());
    engine.Drain();
  }
  EXPECT_TRUE(BuffersEqual(outs[1], outs[0], q.output_schema.tuple_size()));
  EXPECT_GT(outs[0].size(), 0u);
}

TEST(EngineStress, SlotWraparoundUnderOutOfOrderCompletion) {
  // >> kSlots (128) tasks with wildly varying execution cost: an expensive
  // WHERE on a fraction of tasks makes completions arrive far out of order,
  // stressing the result-slot ring and the assembly token hand-off.
  Schema s = syn::SyntheticSchema();
  // a6 == 0 gates a long predicate chain: tasks over matching regions run
  // ~50x longer than the rest.
  std::vector<ExprPtr> chain;
  chain.push_back(Eq(Col(s, "a6"), Lit(0)));
  for (int i = 0; i < 50; ++i) {
    chain.push_back(Ge(Add(Col(s, "a2"), Lit(i)), Lit(0)));
  }
  QueryDef q = QueryBuilder("spiky", s)
                   .Window(WindowDefinition::Count(1, 1))
                   .Where(And(std::move(chain)))
                   .Build();
  auto data = syn::Generate(400000);
  ByteBuffer want = ReferenceEvaluate(q, data);

  EngineOptions o;
  o.num_cpu_workers = 6;
  o.use_gpu = true;
  o.device.pace_transfers = false;
  o.task_size = 1024;  // ~12.5k tasks >> 128 slots
  Engine engine(o);
  QueryHandle* h = engine.AddQuery(q);
  ByteBuffer got;
  h->SetSink([&](const uint8_t* d, size_t m) { got.Append(d, m); });
  engine.Start();
  h->Insert(data.data(), data.size());
  engine.Drain();
  EXPECT_TRUE(BuffersEqual(got, want, q.output_schema.tuple_size()));
}

TEST(EngineStress, RedriveCutsFromOneSnapshotOfTheBufferEnd) {
  // A worker re-drives a deferred cut while the producer inserts. Each
  // round inserts a 192-task block into the idle query: the gate stops the
  // cut at 128 tasks and the call owes an idle cut. The sink holds the
  // first batch until all 128 tasks have run, then the producer releases
  // it and inserts a 256-task chunk at once. The worker assembles the 128
  // results and re-drives the cut: it cuts the block's last 64 tasks, and
  // the chunk's copy often ends meanwhile. The owed idle cut must use the
  // buffer end the re-drive snapshotted. At the newer end it would lie
  // past the next φ grid point, and the next φ cut would abort.
  QueryDef q = syn::MakeProjection(2);
  const size_t tsz = q.input_schema[0].tuple_size();
  const size_t phi = 32 * tsz;
  constexpr size_t kRounds = 200, kBlockTasks = 192, kChunkTasks = 256;
  const auto data =
      syn::Generate((kBlockTasks + kChunkTasks) * phi / tsz, {.seed = 9});
  const ByteBuffer want = ReferenceEvaluate(q, data);
  const size_t block = kBlockTasks * phi;

  EngineOptions o;
  o.num_cpu_workers = 2;
  o.use_gpu = false;
  o.task_size = phi;
  Engine engine(o);
  QueryHandle* h = engine.AddQuery(q);
  ByteBuffer got;
  std::atomic<bool> hold{false};
  std::atomic<size_t> got_bytes{0};
  h->SetSink([&](const uint8_t* d, size_t n) {
    hold.wait(true);
    got.Append(d, n);
    got_bytes.fetch_add(n);
  });
  engine.Start();
  for (size_t round = 0; round < kRounds; ++round) {
    const int64_t ran = h->tasks_on(Processor::kCpu);
    hold.store(true);
    h->Insert(data.data(), block);
    while (h->tasks_on(Processor::kCpu) < ran + 128) {
      std::this_thread::yield();
    }
    hold.store(false);
    hold.notify_all();
    h->Insert(data.data() + block, data.size() - block);
    while (got_bytes.load() < want.size()) std::this_thread::yield();
    ASSERT_TRUE(BuffersEqual(got, want, q.output_schema.tuple_size()))
        << "round " << round;
    got.Clear();
    got_bytes.store(0);
  }
  engine.Drain();
}

TEST(EngineStress, RepeatedDrainCycles) {
  // Drain, then destruct; a fresh engine per cycle over the same data must
  // be deterministic across cycles.
  Schema s = syn::SyntheticSchema();
  QueryDef q = syn::MakeAggregation(AggregateFunction::kSum,
                                    WindowDefinition::Time(30, 6));
  auto data = syn::Generate(8000);
  ByteBuffer first;
  for (int cycle = 0; cycle < 3; ++cycle) {
    EngineOptions o;
    o.num_cpu_workers = 2;
    o.use_gpu = true;
    o.device.pace_transfers = false;
    o.task_size = 1024;
    Engine engine(o);
    QueryHandle* h = engine.AddQuery(q);
    ByteBuffer got;
    h->SetSink([&](const uint8_t* d, size_t m) { got.Append(d, m); });
    engine.Start();
    h->Insert(data.data(), data.size());
    engine.Drain();
    if (cycle == 0) {
      first = std::move(got);
      EXPECT_GT(first.size(), 0u);
    } else {
      EXPECT_TRUE(BuffersEqual(got, first, q.output_schema.tuple_size()))
          << "cycle " << cycle;
    }
  }
}

TEST(EngineStressDeath, WorkerlessEngineRefusesToStart) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EngineOptions o;
  o.num_cpu_workers = 0;
  o.use_gpu = false;
  ASSERT_DEATH(
      {
        Engine engine(o);
        engine.AddQuery(
            syn::MakeSelection(1, 10, WindowDefinition::Count(4, 4)));
        engine.Start();
      },
      "num_cpu_workers > 0");
}

TEST(EngineStress, ZeroByteAndSubTupleInsertsAreHandled) {
  Schema s = syn::SyntheticSchema();
  QueryDef q = syn::MakeSelection(1, 10, WindowDefinition::Count(4, 4));
  EngineOptions o;
  o.num_cpu_workers = 1;
  o.use_gpu = false;
  Engine engine(o);
  QueryHandle* h = engine.AddQuery(q);
  engine.Start();
  auto data = syn::Generate(64);
  h->Insert(data.data(), 0);  // zero-byte insert: no-op
  h->Insert(data.data(), data.size());
  engine.Drain();
  EXPECT_EQ(h->tuples_in(), 64);
}

}  // namespace
}  // namespace saber
