#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <vector>

#include "core/engine.h"
#include "cpu/cpu_operators.h"
#include "gpu/gpu_operators.h"
#include "reference/reference.h"
#include "test_util.h"
#include "window/window_math.h"
#include "workloads/synthetic.h"

/// \file session_window_test.cc
/// Session windows (gap-based close) across every layer: the window-math
/// predicates, QueryBuilder validation, the CPU and GPGPU aggregation
/// operators against the reference model under arbitrary batch splits, and
/// the engine end to end. The acceptance bar is the usual one:
/// output byte-identical to the reference regardless of backend, batch
/// size, worker count or task size.

namespace saber {
namespace {

using testing::BuffersEqual;
using testing::MakeTestGpuOperator;
using testing::RandomStream;
using testing::RunSingleInput;

TEST(SessionMath, ExtendsAndClosed) {
  // A tuple extends the session iff it lands within `gap` of the last one.
  EXPECT_TRUE(SessionExtends(10, 10, 0));   // equal timestamps always extend
  EXPECT_TRUE(SessionExtends(10, 13, 3));
  EXPECT_FALSE(SessionExtends(10, 14, 3));
  // A session closes only once the watermark is strictly past last + gap.
  EXPECT_FALSE(SessionClosed(10, 13, 3));
  EXPECT_FALSE(SessionClosed(10, 10, 3));
  EXPECT_TRUE(SessionClosed(10, 14, 3));
}

TEST(SessionWindow, DefinitionAccessors) {
  WindowDefinition w = WindowDefinition::Session(25);
  EXPECT_TRUE(w.session());
  EXPECT_TRUE(w.time_based());
  EXPECT_EQ(w.gap(), 25);
  EXPECT_FALSE(w.unbounded);
  EXPECT_EQ(w.ToString(), "w(session,25)");
}

TEST(SessionWindow, RejectedOnNonAggregationQueries) {
  Schema s = syn::SyntheticSchema();
  Result<QueryDef> r = QueryBuilder("sess_proj", s)
                           .Window(WindowDefinition::Session(4))
                           .Select(Col(s, "timestamp"), "timestamp")
                           .Select(Col(s, "a1"), "a1")
                           .TryBuild();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("aggregation queries only"),
            std::string::npos);
}

TEST(SessionWindow, RejectedWhenCombinedWithUnbounded) {
  Schema s = syn::SyntheticSchema();
  WindowDefinition w = WindowDefinition::Session(4);
  w.unbounded = true;
  Result<QueryDef> r = QueryBuilder("sess_unb", s)
                           .Window(w)
                           .Aggregate(AggregateFunction::kSum, Col(s, "a1"))
                           .TryBuild();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("session and unbounded"),
            std::string::npos);
}

TEST(SessionWindow, HandComputedUngroupedCounts) {
  // Three bursts separated by silences longer than the gap. The final burst
  // never closes (no watermark past it), so it must not emit.
  Schema s = syn::SyntheticSchema();
  auto stream = testing::MakeStream(s, {{1, 1, 0, 0, 0, 0, 0},
                                        {2, 1, 0, 0, 0, 0, 0},
                                        {3, 1, 0, 0, 0, 0, 0},
                                        {10, 1, 0, 0, 0, 0, 0},
                                        {11, 1, 0, 0, 0, 0, 0},
                                        {20, 1, 0, 0, 0, 0, 0}});
  QueryDef q = syn::MakeAggregation(AggregateFunction::kCount,
                                    WindowDefinition::Session(3));
  auto op = MakeCpuOperator(&q);
  ByteBuffer got = RunSingleInput(*op, q, stream, 4);
  const Schema& os = q.output_schema;
  ASSERT_EQ(got.size(), 2 * os.tuple_size());
  TupleRef r0(got.data(), &os);
  TupleRef r1(got.data() + os.tuple_size(), &os);
  EXPECT_EQ(r0.timestamp(), 3);  // session rows carry the max raw timestamp
  EXPECT_EQ(r0.GetDouble(1), 3.0);
  EXPECT_EQ(r1.timestamp(), 11);
  EXPECT_EQ(r1.GetDouble(1), 2.0);
  EXPECT_TRUE(BuffersEqual(got, ReferenceEvaluate(q, stream),
                           os.tuple_size()));
}

/// Session-friendly stream: random gaps up to `max_gap` so sessions of all
/// shapes (singletons, long runs, equal-timestamp bursts) occur.
std::vector<uint8_t> SessionStream(size_t n, uint32_t seed,
                                   int64_t max_gap = 7) {
  return RandomStream(syn::SyntheticSchema(), n, seed, max_gap);
}

TEST(SessionWindow, VectorizedOperatorMatchesReference) {
  for (int64_t gap : {1, 2, 5}) {
    QueryDef q = syn::MakeAggregationAll(WindowDefinition::Session(gap));
    auto op = MakeCpuOperator(&q);
    for (uint32_t seed : {1000u, 2000u}) {
      auto stream = SessionStream(6000, seed + static_cast<uint32_t>(gap));
      ByteBuffer want = ReferenceEvaluate(q, stream);
      for (size_t batch : {size_t{1}, size_t{17}, size_t{63}, size_t{256},
                           size_t{1024}, size_t{6000}}) {
        ByteBuffer got = RunSingleInput(*op, q, stream, batch);
        EXPECT_TRUE(BuffersEqual(got, want, q.output_schema.tuple_size()))
            << "gap " << gap << " seed " << seed << " batch " << batch;
      }
    }
  }
}

TEST(SessionWindow, GroupedWithWhereAndHavingMatchesReference) {
  Schema s = syn::SyntheticSchema();
  QueryDef q = syn::MakeGroupBy(4, WindowDefinition::Session(3));
  q.where = Gt(Col(s, "a2"), Lit(2));  // can filter a whole session empty
  q.having = Gt(Col(q.output_schema, "cnt"), Lit(1.0));
  auto stream = SessionStream(8000, 77);
  ByteBuffer want = ReferenceEvaluate(q, stream);
  auto op = MakeCpuOperator(&q);
  for (size_t batch : {size_t{9}, size_t{300}, size_t{8000}}) {
    ByteBuffer got = RunSingleInput(*op, q, stream, batch);
    EXPECT_TRUE(BuffersEqual(got, want, q.output_schema.tuple_size()))
        << "batch " << batch;
  }
}

TEST(SessionWindow, FuzzMatchesReference) {
  std::mt19937 rng(20260808);
  for (int iter = 0; iter < 10; ++iter) {
    std::uniform_int_distribution<int64_t> gap_dist(1, 6);
    std::uniform_int_distribution<size_t> n_dist(500, 5000);
    std::uniform_int_distribution<size_t> batch_dist(1, 700);
    const int64_t gap = gap_dist(rng);
    QueryDef q = (iter % 2 == 0)
                     ? syn::MakeGroupBy(8, WindowDefinition::Session(gap))
                     : syn::MakeAggregationAll(WindowDefinition::Session(gap));
    auto stream = SessionStream(n_dist(rng), static_cast<uint32_t>(rng()));
    ByteBuffer want = ReferenceEvaluate(q, stream);
    auto op = MakeCpuOperator(&q);
    const size_t batch = batch_dist(rng);
    ByteBuffer got = RunSingleInput(*op, q, stream, batch);
    EXPECT_TRUE(BuffersEqual(got, want, q.output_schema.tuple_size()))
        << "iter " << iter << " gap " << gap << " batch " << batch;
  }
}

class SessionGpuTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SimDeviceOptions o;
    o.pace_transfers = false;
    o.num_executors = 4;
    device_ = std::make_unique<SimDevice>(o);
  }
  std::unique_ptr<SimDevice> device_;
};

TEST_F(SessionGpuTest, UngroupedMatchesReference) {
  QueryDef q = syn::MakeAggregationAll(WindowDefinition::Session(3));
  auto stream = SessionStream(6000, 42);
  ByteBuffer want = ReferenceEvaluate(q, stream);
  auto op = MakeTestGpuOperator(&q, device_.get());
  for (size_t batch : {size_t{33}, size_t{512}, size_t{6000}}) {
    ByteBuffer got = RunSingleInput(*op, q, stream, batch);
    EXPECT_TRUE(BuffersEqual(got, want, q.output_schema.tuple_size()))
        << "batch " << batch;
  }
}

TEST_F(SessionGpuTest, GroupedMatchesReference) {
  Schema s = syn::SyntheticSchema();
  QueryDef q = syn::MakeGroupBy(6, WindowDefinition::Session(2));
  q.where = Gt(Col(s, "a3"), Lit(1));
  auto stream = SessionStream(7000, 4242);
  ByteBuffer want = ReferenceEvaluate(q, stream);
  auto op = MakeTestGpuOperator(&q, device_.get());
  for (size_t batch : {size_t{50}, size_t{999}}) {
    ByteBuffer got = RunSingleInput(*op, q, stream, batch);
    EXPECT_TRUE(BuffersEqual(got, want, q.output_schema.tuple_size()))
        << "batch " << batch;
  }
}

EngineOptions FastOptions(int cpu, bool gpu) {
  EngineOptions o;
  o.num_cpu_workers = cpu;
  o.use_gpu = gpu;
  o.device.pace_transfers = false;
  o.task_size = 4096;
  return o;
}

ByteBuffer RunOnce(const EngineOptions& o, QueryDef def,
                   const std::vector<uint8_t>& stream, size_t chunk_tuples) {
  Engine engine(o);
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

TEST(SessionWindow, EngineMatchesReferenceAcrossBackends) {
  QueryDef q = syn::MakeGroupBy(8, WindowDefinition::Session(3));
  auto stream = SessionStream(30000, 555);
  ByteBuffer want = ReferenceEvaluate(q, stream);
  for (int workers : {1, 3}) {
    for (bool gpu : {false, true}) {
      ByteBuffer got = RunOnce(FastOptions(workers, gpu), q, stream, 777);
      EXPECT_TRUE(BuffersEqual(got, want, q.output_schema.tuple_size()))
          << workers << " workers, gpu=" << gpu;
    }
  }
}

TEST(SessionWindow, EngineOutputIdenticalAcrossTaskSizes) {
  QueryDef q = syn::MakeAggregationAll(WindowDefinition::Session(4));
  auto stream = SessionStream(25000, 901);
  ByteBuffer want = ReferenceEvaluate(q, stream);
  for (size_t task_size : {size_t{512}, size_t{4096}, size_t{65536}}) {
    EngineOptions o = FastOptions(3, true);
    o.task_size = task_size;
    ByteBuffer got = RunOnce(o, q, stream, 123);
    EXPECT_TRUE(BuffersEqual(got, want, q.output_schema.tuple_size()))
        << "task size " << task_size;
  }
}

}  // namespace
}  // namespace saber
