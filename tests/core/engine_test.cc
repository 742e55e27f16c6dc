#include "core/engine.h"

#include <gtest/gtest.h>

#include "reference/reference.h"
#include "test_util.h"

namespace saber {
namespace {

using testing::BuffersEqual;
using testing::RandomStream;

Schema SynSchema() {
  return Schema::MakeStream({{"v", DataType::kFloat},
                             {"k", DataType::kInt32},
                             {"k2", DataType::kInt32}});
}

EngineOptions SmallOptions(int cpu_workers, bool gpu,
                           SchedulerKind kind = SchedulerKind::kHls) {
  EngineOptions o;
  o.num_cpu_workers = cpu_workers;
  o.use_gpu = gpu;
  o.device.pace_transfers = false;
  o.device.num_executors = 2;
  o.task_size = 4096;  // small tasks => many of them, exercising reordering
  o.input_buffer_size = 1 << 20;
  o.scheduler = kind;
  return o;
}

/// Feeds a stream in chunks, drains, and returns the collected ordered
/// output.
ByteBuffer RunEngineSingle(const EngineOptions& opts, QueryDef def,
                           const std::vector<uint8_t>& stream,
                           size_t chunk_tuples = 97) {
  Engine engine(opts);
  QueryHandle* q = engine.AddQuery(std::move(def));
  ByteBuffer out;
  q->SetSink([&](const uint8_t* d, size_t n) { out.Append(d, n); });
  engine.Start();
  const size_t tsz = q->def().input_schema[0].tuple_size();
  const size_t chunk = chunk_tuples * tsz;
  for (size_t off = 0; off < stream.size(); off += chunk) {
    q->Insert(stream.data() + off, std::min(chunk, stream.size() - off));
  }
  engine.Drain();
  return out;
}

TEST(Engine, CpuOnlySelectionMatchesReference) {
  Schema s = SynSchema();
  QueryDef q = QueryBuilder("sel", s).Where(Gt(Col(s, "k"), Lit(4))).Build();
  auto stream = RandomStream(s, 20000, 50);
  ByteBuffer want = ReferenceEvaluate(q, stream);
  ByteBuffer got = RunEngineSingle(SmallOptions(4, false), q, stream);
  EXPECT_TRUE(BuffersEqual(got, want, q.output_schema.tuple_size()));
  EXPECT_GT(got.size(), 0u);
}

TEST(Engine, GpuOnlySelectionMatchesReference) {
  Schema s = SynSchema();
  QueryDef q = QueryBuilder("gsel", s).Where(Gt(Col(s, "k"), Lit(4))).Build();
  auto stream = RandomStream(s, 20000, 51);
  ByteBuffer want = ReferenceEvaluate(q, stream);
  ByteBuffer got = RunEngineSingle(SmallOptions(0, true), q, stream);
  EXPECT_TRUE(BuffersEqual(got, want, q.output_schema.tuple_size()));
}

TEST(Engine, HybridSelectionMatchesReference) {
  Schema s = SynSchema();
  QueryDef q = QueryBuilder("hsel", s)
                   .Where(Or({Gt(Col(s, "k"), Lit(6)), Lt(Col(s, "k2"), Lit(3))}))
                   .Build();
  auto stream = RandomStream(s, 50000, 52);
  ByteBuffer want = ReferenceEvaluate(q, stream);
  ByteBuffer got = RunEngineSingle(SmallOptions(3, true), q, stream);
  EXPECT_TRUE(BuffersEqual(got, want, q.output_schema.tuple_size()));
}

TEST(Engine, HybridUsesBothProcessors) {
  Schema s = SynSchema();
  QueryDef def = QueryBuilder("both", s).Where(Gt(Col(s, "k"), Lit(0))).Build();
  auto stream = RandomStream(s, 100000, 53);
  EngineOptions o = SmallOptions(2, true);
  o.switch_threshold = 4;  // force exploration
  Engine engine(o);
  QueryHandle* q = engine.AddQuery(def);
  engine.Start();
  const size_t chunk = 128 * s.tuple_size();
  for (size_t off = 0; off < stream.size(); off += chunk) {
    q->Insert(stream.data() + off, std::min(chunk, stream.size() - off));
  }
  engine.Drain();
  EXPECT_GT(q->tasks_on(Processor::kCpu), 0);
  EXPECT_GT(q->tasks_on(Processor::kGpu), 0);
  EXPECT_EQ(q->tasks_on(Processor::kCpu) + q->tasks_on(Processor::kGpu),
            q->rows_out() > 0 ? q->tasks_on(Processor::kCpu) +
                                    q->tasks_on(Processor::kGpu)
                              : 0);
}

TEST(Engine, SlidingAggregationHybridMatchesReference) {
  Schema s = SynSchema();
  QueryDef q = QueryBuilder("agg", s)
                   .Window(WindowDefinition::Count(256, 64))
                   .Aggregate(AggregateFunction::kSum, Col(s, "v"), "sv")
                   .Aggregate(AggregateFunction::kCount, nullptr, "n")
                   .Build();
  auto stream = RandomStream(s, 30000, 54);
  ByteBuffer want = ReferenceEvaluate(q, stream);
  ByteBuffer got = RunEngineSingle(SmallOptions(3, true), q, stream);
  EXPECT_TRUE(BuffersEqual(got, want, q.output_schema.tuple_size()));
  EXPECT_GT(got.size(), 0u);
}

TEST(Engine, TimeWindowGroupByMatchesReference) {
  Schema s = SynSchema();
  QueryDef q = QueryBuilder("grp", s)
                   .Window(WindowDefinition::Time(30, 10))
                   .GroupBy({Col(s, "k")})
                   .Aggregate(AggregateFunction::kAvg, Col(s, "v"), "av")
                   .Build();
  auto stream = RandomStream(s, 20000, 55, /*max_ts_gap=*/2, /*attr_range=*/6);
  ByteBuffer want = ReferenceEvaluate(q, stream);
  ByteBuffer got = RunEngineSingle(SmallOptions(4, true), q, stream);
  EXPECT_TRUE(BuffersEqual(got, want, q.output_schema.tuple_size()));
}

TEST(Engine, JoinHybridMatchesReference) {
  Schema l = Schema::MakeStream({{"key", DataType::kInt32}, {"lv", DataType::kFloat}});
  Schema r = Schema::MakeStream({{"key", DataType::kInt32}, {"rv", DataType::kFloat}});
  QueryBuilder b("join", l, r);
  b.Window(WindowDefinition::Time(8, 4));
  b.JoinOn(Eq(Col(l, "key"), Col(r, "key", Side::kRight)));
  b.JoinSelect(Col(l, "timestamp"), "timestamp");
  b.JoinSelect(Col(l, "key"), "key");
  b.JoinSelect(Col(r, "rv", Side::kRight), "rv");
  QueryDef def = b.Build();

  auto s0 = RandomStream(l, 4000, 56, 1, 5);
  auto s1 = RandomStream(r, 4000, 57, 1, 5);
  ByteBuffer want = ReferenceEvaluate(def, s0, s1);

  EngineOptions o = SmallOptions(3, true);
  Engine engine(o);
  QueryHandle* q = engine.AddQuery(def);
  ByteBuffer got;
  q->SetSink([&](const uint8_t* d, size_t n) { got.Append(d, n); });
  engine.Start();
  // Interleave producers so timestamp cuts keep forming.
  const size_t tsz = l.tuple_size();
  const size_t chunk = 50 * tsz;
  size_t o0 = 0, o1 = 0;
  while (o0 < s0.size() || o1 < s1.size()) {
    if (o0 < s0.size()) {
      q->InsertInto(0, s0.data() + o0, std::min(chunk, s0.size() - o0));
      o0 += chunk;
    }
    if (o1 < s1.size()) {
      q->InsertInto(1, s1.data() + o1, std::min(chunk, s1.size() - o1));
      o1 += chunk;
    }
  }
  engine.Drain();
  EXPECT_TRUE(BuffersEqual(got, want, def.output_schema.tuple_size()));
  EXPECT_GT(got.size(), 0u);
}

TEST(Engine, ChainedQueriesMatchNestedReference) {
  // LRB4-style nesting: aggregate per (k,k2), then aggregate the output
  // per k. The engine routes q1's output stream into q2 (Connect).
  Schema s = SynSchema();
  QueryDef q1 = QueryBuilder("inner", s)
                    .Window(WindowDefinition::Count(128, 128))
                    .GroupBy({Col(s, "k"), Col(s, "k2")})
                    .Aggregate(AggregateFunction::kCount, nullptr, "n")
                    .Build();
  QueryDef q2 = QueryBuilder("outer", q1.output_schema)
                    .Window(WindowDefinition::Count(16, 16))
                    .GroupBy({Col(q1.output_schema, "key0")})
                    .Aggregate(AggregateFunction::kSum,
                               Col(q1.output_schema, "n"), "total")
                    .Build();

  auto stream = RandomStream(s, 20000, 58, 2, 4);
  ByteBuffer inner = ReferenceEvaluate(q1, stream);
  std::vector<uint8_t> inner_vec(inner.data(), inner.data() + inner.size());
  ByteBuffer want = ReferenceEvaluate(q2, inner_vec);

  EngineOptions o = SmallOptions(3, true);
  Engine engine(o);
  QueryHandle* h1 = engine.AddQuery(q1);
  QueryHandle* h2 = engine.AddQuery(q2);
  engine.Connect(h1, h2, 0);
  ByteBuffer got;
  h2->SetSink([&](const uint8_t* d, size_t n) { got.Append(d, n); });
  engine.Start();
  const size_t chunk = 200 * s.tuple_size();
  for (size_t off = 0; off < stream.size(); off += chunk) {
    h1->Insert(stream.data() + off, std::min(chunk, stream.size() - off));
  }
  engine.Drain();
  EXPECT_TRUE(BuffersEqual(got, want, q2.output_schema.tuple_size()));
  EXPECT_GT(got.size(), 0u);
}

// Output must be identical regardless of the scheduler — scheduling is a
// performance decision, never a semantic one.
class EngineSchedulerTest : public ::testing::TestWithParam<SchedulerKind> {};

TEST_P(EngineSchedulerTest, OutputInvariantUnderScheduler) {
  Schema s = SynSchema();
  QueryDef q = QueryBuilder("inv", s)
                   .Window(WindowDefinition::Count(100, 25))
                   .GroupBy({Col(s, "k")})
                   .Aggregate(AggregateFunction::kSum, Col(s, "v"), "sv")
                   .Build();
  auto stream = RandomStream(s, 15000, 59, 2, 5);
  ByteBuffer want = ReferenceEvaluate(q, stream);
  EngineOptions o = SmallOptions(2, true, GetParam());
  if (GetParam() == SchedulerKind::kStatic) {
    o.static_assignment = {{0, Processor::kGpu}};
  }
  ByteBuffer got = RunEngineSingle(o, q, stream);
  EXPECT_TRUE(BuffersEqual(got, want, q.output_schema.tuple_size()));
}

INSTANTIATE_TEST_SUITE_P(Schedulers, EngineSchedulerTest,
                         ::testing::Values(SchedulerKind::kHls,
                                           SchedulerKind::kFcfs,
                                           SchedulerKind::kStatic));

TEST(Engine, MultipleConcurrentQueries) {
  Schema s = SynSchema();
  QueryDef qa = QueryBuilder("a", s).Where(Gt(Col(s, "k"), Lit(5))).Build();
  QueryDef qb = QueryBuilder("b", s)
                    .Window(WindowDefinition::Count(64, 64))
                    .Aggregate(AggregateFunction::kSum, Col(s, "v"), "sv")
                    .Build();
  auto stream = RandomStream(s, 20000, 60);
  ByteBuffer want_a = ReferenceEvaluate(qa, stream);
  ByteBuffer want_b = ReferenceEvaluate(qb, stream);

  Engine engine(SmallOptions(3, true));
  QueryHandle* ha = engine.AddQuery(qa);
  QueryHandle* hb = engine.AddQuery(qb);
  ByteBuffer got_a, got_b;
  ha->SetSink([&](const uint8_t* d, size_t n) { got_a.Append(d, n); });
  hb->SetSink([&](const uint8_t* d, size_t n) { got_b.Append(d, n); });
  engine.Start();
  const size_t chunk = 123 * s.tuple_size();
  for (size_t off = 0; off < stream.size(); off += chunk) {
    const size_t n = std::min(chunk, stream.size() - off);
    ha->Insert(stream.data() + off, n);
    hb->Insert(stream.data() + off, n);
  }
  engine.Drain();
  EXPECT_TRUE(BuffersEqual(got_a, want_a, qa.output_schema.tuple_size()));
  EXPECT_TRUE(BuffersEqual(got_b, want_b, qb.output_schema.tuple_size()));
}

TEST(Engine, FreePointersReclaimBufferSpace) {
  // A stream much larger than the input buffer: only free-pointer releases
  // (§4.1) can make ingestion complete.
  Schema s = SynSchema();
  QueryDef def = QueryBuilder("free", s).Where(Gt(Col(s, "k"), Lit(100))).Build();
  EngineOptions o = SmallOptions(2, false);
  o.input_buffer_size = 64 * 1024;  // 2k tuples
  o.task_size = 8 * 1024;
  Engine engine(o);
  QueryHandle* q = engine.AddQuery(def);
  engine.Start();
  auto stream = RandomStream(s, 50000, 61);  // 1.6 MB through a 64 KB buffer
  const size_t chunk = 100 * s.tuple_size();
  for (size_t off = 0; off < stream.size(); off += chunk) {
    q->Insert(stream.data() + off, std::min(chunk, stream.size() - off));
  }
  engine.Drain();
  EXPECT_EQ(q->tuples_in(), 50000);
}

TEST(Engine, LatencyIsRecorded) {
  Schema s = SynSchema();
  QueryDef def = QueryBuilder("lat", s).Build();
  Engine engine(SmallOptions(2, false));
  QueryHandle* q = engine.AddQuery(def);
  engine.Start();
  auto stream = RandomStream(s, 5000, 62);
  q->Insert(stream.data(), stream.size());
  engine.Drain();
  EXPECT_GT(q->latency().count(), 0);
  EXPECT_GT(q->latency().sum(), 0);
}

TEST(Engine, DrainWithNoDataIsClean) {
  Schema s = SynSchema();
  Engine engine(SmallOptions(2, true));
  engine.AddQuery(QueryBuilder("empty", s).Build());
  engine.Start();
  engine.Drain();  // must not hang or crash
}

using EngineDeathTest = ::testing::Test;

TEST(EngineDeathTest, MisalignedInsertAborts) {
  // The InsertInto boundary rejects partial tuples: a misaligned byte count
  // would shift every later tuple's field reads and silently corrupt
  // dispatch (nothing guarded this before the sharded-ingestion PR).
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Schema s = SynSchema();
  const auto stream = RandomStream(s, 4, /*seed=*/1);
  EXPECT_DEATH(
      {
        Engine engine(SmallOptions(1, false));
        QueryHandle* q = engine.AddQuery(QueryBuilder("misaligned", s).Build());
        q->Insert(stream.data(), s.tuple_size() + 3);
      },
      "not a multiple of the");
}

TEST(EngineDeathTest, DecreasingTimestampsAbortAcrossInserts) {
  // Timestamp regressions are caught across insert calls, not only within
  // one block, wherever the engine consumes time: time-based windows (pane
  // cutting) and joins (the dispatch cut). Count-based windows stay exempt
  // — re-feeding a block with restarting timestamps is their benchmark
  // idiom (StreamFeeder shift_timestamps=false).
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Schema s = SynSchema();
  auto ok = testing::MakeStream(s, {{7, 0, 0, 0}});
  auto bad = testing::MakeStream(s, {{3, 0, 0, 0}});
  EXPECT_DEATH(
      {
        Engine engine(SmallOptions(1, false));
        QueryHandle* q = engine.AddQuery(QueryBuilder("ts_order", s)
                                             .Window(WindowDefinition::Time(4, 2))
                                             .Build());
        q->Insert(ok.data(), ok.size());
        q->Insert(bad.data(), bad.size());
      },
      "non-decreasing");
}

TEST(Engine, CountWindowsTolerateRestartingTimestamps) {
  // The repeated-feed idiom: count windows ignore time, so feeding the
  // same block twice (timestamps restart at the block boundary) must keep
  // working.
  Schema s = SynSchema();
  const auto stream = RandomStream(s, 512, /*seed=*/5);
  Engine engine(SmallOptions(1, false));
  QueryHandle* q = engine.AddQuery(
      QueryBuilder("count_refeed", s).Window(WindowDefinition::Count(8, 8)).Build());
  int64_t rows = 0;
  q->SetSink([&](const uint8_t*, size_t n) {
    rows += static_cast<int64_t>(n / q->output_schema().tuple_size());
  });
  engine.Start();
  q->Insert(stream.data(), stream.size());
  q->Insert(stream.data(), stream.size());  // restarts timestamps: fine
  engine.Drain();
  EXPECT_EQ(rows, 2 * 512);
}

TEST(Engine, SetSinkLifecycleGuard) {
  // Workers invoke the sink from TryAssemble without synchronization, so
  // swapping it once tasks can be in flight is a data race (UB while a call
  // is in progress); that misuse surfaces as a Status now, not an abort.
  // Legal windows: before Start, and on a running engine before the query's
  // first dispatched task (the live-admission path sets its sink there).
  Schema s = SynSchema();
  QueryDef def = QueryBuilder("sink_guard", s).Build();
  Engine engine(SmallOptions(1, false));
  QueryHandle* q = engine.AddQuery(def);
  EXPECT_TRUE(q->SetSink([](const uint8_t*, size_t) {}).ok());  // pre-Start
  engine.Start();
  // Running but nothing dispatched yet: still safe, still allowed.
  EXPECT_TRUE(q->SetSink([](const uint8_t*, size_t) {}).ok());
  const auto stream = RandomStream(s, 4096, /*seed=*/7);
  q->Insert(stream.data(), stream.size());  // > φ: dispatches tasks
  const Status swap = q->SetSink([](const uint8_t*, size_t) {});
  EXPECT_FALSE(swap.ok());
  EXPECT_EQ(swap.code(), StatusCode::kInvalidArgument);
  engine.Drain();
}

}  // namespace
}  // namespace saber
