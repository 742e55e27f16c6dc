#include "gpu/gpu_operators.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "cpu/cpu_operators.h"
#include "reference/reference.h"
#include "test_util.h"
#include "udf/median.h"
#include "udf/partition_join.h"

namespace saber {
namespace {

using testing::BuffersEqual;
using testing::MakeTestGpuOperator;
using testing::RandomStream;
using testing::RunJoin;
using testing::RunSingleInput;
using testing::SplitStream;

Schema SynSchema() {
  return Schema::MakeStream({{"v", DataType::kFloat},
                             {"k", DataType::kInt32},
                             {"k2", DataType::kInt32}});
}

class GpuOperatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SimDeviceOptions o;
    o.pace_transfers = false;  // correctness tests need no timing model
    o.num_executors = 4;
    device_ = std::make_unique<SimDevice>(o);
  }
  std::unique_ptr<SimDevice> device_;
};

TEST_F(GpuOperatorTest, SelectionMatchesReference) {
  Schema s = SynSchema();
  QueryDef q = QueryBuilder("gsel", s)
                   .Where(And({Gt(Col(s, "k"), Lit(2)), Lt(Col(s, "k2"), Lit(8))}))
                   .Build();
  auto op = MakeTestGpuOperator(&q, device_.get());
  auto stream = RandomStream(s, 5000, 31);
  ByteBuffer want = ReferenceEvaluate(q, stream);
  ByteBuffer got = RunSingleInput(*op, q, stream, 700);
  EXPECT_TRUE(BuffersEqual(got, want, q.output_schema.tuple_size()));
  EXPECT_GT(got.size(), 0u);
}

TEST_F(GpuOperatorTest, ProjectionMatchesCpuByteForByte) {
  Schema s = SynSchema();
  auto make_query = [&] {
    return QueryBuilder("gproj", s)
        .Select(Col(s, "timestamp"), "timestamp")
        .Select(Add(Mul(Col(s, "v"), Lit(3.0)), Col(s, "k")), "expr")
        .Select(Col(s, "k2"), "k2")
        .Build();
  };
  QueryDef q = make_query();
  auto gpu = MakeTestGpuOperator(&q, device_.get());
  auto cpu = MakeCpuOperator(&q);
  auto stream = RandomStream(s, 3000, 32);
  ByteBuffer g = RunSingleInput(*gpu, q, stream, 1024);
  ByteBuffer c = RunSingleInput(*cpu, q, stream, 1024);
  EXPECT_TRUE(BuffersEqual(g, c, q.output_schema.tuple_size()));
}

TEST_F(GpuOperatorTest, IdentityProjectionForwardsBytes) {
  Schema s = SynSchema();
  QueryDef q = QueryBuilder("gid", s).Build();
  auto op = MakeTestGpuOperator(&q, device_.get());
  auto stream = RandomStream(s, 2000, 33);
  ByteBuffer got = RunSingleInput(*op, q, stream, 512);
  ASSERT_EQ(got.size(), stream.size());
  EXPECT_EQ(std::memcmp(got.data(), stream.data(), stream.size()), 0);
}

TEST_F(GpuOperatorTest, UngroupedAggregationMatchesReference) {
  Schema s = SynSchema();
  QueryDef q = QueryBuilder("gagg", s)
                   .Window(WindowDefinition::Count(64, 16))
                   .Aggregate(AggregateFunction::kSum, Col(s, "v"), "sv")
                   .Aggregate(AggregateFunction::kMax, Col(s, "v"), "mx")
                   .Build();
  auto op = MakeTestGpuOperator(&q, device_.get());
  auto stream = RandomStream(s, 4000, 34);
  ByteBuffer want = ReferenceEvaluate(q, stream);
  ByteBuffer got = RunSingleInput(*op, q, stream, 333);
  EXPECT_TRUE(BuffersEqual(got, want, q.output_schema.tuple_size()));
}

TEST_F(GpuOperatorTest, TimeWindowAggregationMatchesReference) {
  Schema s = SynSchema();
  QueryDef q = QueryBuilder("gaggt", s)
                   .Window(WindowDefinition::Time(20, 5))
                   .Where(Gt(Col(s, "k"), Lit(1)))
                   .Aggregate(AggregateFunction::kAvg, Col(s, "v"), "av")
                   .Build();
  auto op = MakeTestGpuOperator(&q, device_.get());
  auto stream = RandomStream(s, 3000, 35, /*max_ts_gap=*/3);
  ByteBuffer want = ReferenceEvaluate(q, stream);
  ByteBuffer got = RunSingleInput(*op, q, stream, 211);
  EXPECT_TRUE(BuffersEqual(got, want, q.output_schema.tuple_size()));
}

TEST_F(GpuOperatorTest, GroupByMatchesReferenceAndCpu) {
  Schema s = SynSchema();
  QueryDef q = QueryBuilder("ggrp", s)
                   .Window(WindowDefinition::Time(12, 4))
                   .GroupBy({Col(s, "k"), Col(s, "k2")})
                   .Aggregate(AggregateFunction::kSum, Col(s, "v"), "sv")
                   .Aggregate(AggregateFunction::kCount, nullptr, "n")
                   .Build();
  auto gpu = MakeTestGpuOperator(&q, device_.get());
  auto cpu = MakeCpuOperator(&q);
  auto stream = RandomStream(s, 3000, 36, 2, 5);
  ByteBuffer want = ReferenceEvaluate(q, stream);
  ByteBuffer g = RunSingleInput(*gpu, q, stream, 577);
  ByteBuffer c = RunSingleInput(*cpu, q, stream, 577);
  EXPECT_TRUE(BuffersEqual(g, want, q.output_schema.tuple_size()));
  EXPECT_TRUE(BuffersEqual(g, c, q.output_schema.tuple_size()));
}

TEST_F(GpuOperatorTest, GroupByWithHaving) {
  Schema s = SynSchema();
  QueryDef q = QueryBuilder("ghav", s)
                   .Window(WindowDefinition::Count(32, 32))
                   .GroupBy({Col(s, "k")})
                   .Aggregate(AggregateFunction::kCount, nullptr, "n")
                   .Build();
  q.having = Gt(Col(q.output_schema, "n"), Lit(3.0));
  auto op = MakeTestGpuOperator(&q, device_.get());
  auto stream = RandomStream(s, 2000, 37, 2, 4);
  ByteBuffer want = ReferenceEvaluate(q, stream);
  ByteBuffer got = RunSingleInput(*op, q, stream, 400);
  EXPECT_TRUE(BuffersEqual(got, want, q.output_schema.tuple_size()));
}

TEST_F(GpuOperatorTest, JoinMatchesReference) {
  Schema l = Schema::MakeStream({{"key", DataType::kInt32}, {"lv", DataType::kFloat}});
  Schema r = Schema::MakeStream({{"key", DataType::kInt32}, {"rv", DataType::kFloat}});
  QueryBuilder b("gjoin", l, r);
  b.Window(WindowDefinition::Time(6, 3));
  b.JoinOn(Eq(Col(l, "key"), Col(r, "key", Side::kRight)));
  b.JoinSelect(Col(l, "timestamp"), "timestamp");
  b.JoinSelect(Col(l, "key"), "key");
  b.JoinSelect(Col(l, "lv"), "lv");
  b.JoinSelect(Col(r, "rv", Side::kRight), "rv");
  QueryDef q = b.Build();
  auto op = MakeTestGpuOperator(&q, device_.get());
  auto s0 = RandomStream(l, 300, 38, 2, 4);
  auto s1 = RandomStream(r, 300, 39, 2, 4);
  ByteBuffer want = ReferenceEvaluate(q, s0, s1);
  ByteBuffer got = RunJoin(*op, q, s0, s1, 7);
  EXPECT_TRUE(BuffersEqual(got, want, q.output_schema.tuple_size()));
  EXPECT_GT(got.size(), 0u);
}

TEST_F(GpuOperatorTest, JoinIdenticalToCpuJoin) {
  Schema l = Schema::MakeStream({{"key", DataType::kInt32}, {"lv", DataType::kFloat}});
  Schema r = Schema::MakeStream({{"key", DataType::kInt32}, {"rv", DataType::kFloat}});
  QueryBuilder b("gjoin2", l, r);
  b.Window(WindowDefinition::Count(16, 8));
  b.JoinOn(And({Eq(Col(l, "key"), Col(r, "key", Side::kRight)),
                Lt(Col(l, "lv"), Col(r, "rv", Side::kRight))}));
  QueryDef q = b.Build();
  auto gpu = MakeTestGpuOperator(&q, device_.get());
  auto cpu = MakeCpuOperator(&q);
  auto s0 = RandomStream(l, 400, 40, 1, 4);
  auto s1 = RandomStream(r, 400, 41, 1, 4);
  ByteBuffer g = RunJoin(*gpu, q, s0, s1, 9);
  ByteBuffer c = RunJoin(*cpu, q, s0, s1, 9);
  EXPECT_TRUE(BuffersEqual(g, c, q.output_schema.tuple_size()));
}

// ---------------------------------------------------------------------------
// Work groups: the device runs a task as several ProcessBatch calls, split
// where WorkGroupCuts allows, and concatenates their results.
// ---------------------------------------------------------------------------

/// The first `n` tuples of `stream` as one stream batch starting at global
/// index `first_index`.
StreamBatch BatchOf(const std::vector<uint8_t>& stream, const Schema& s,
                    size_t n, int64_t first_index) {
  StreamBatch b;
  b.data = SpanPair{stream.data(), n * s.tuple_size(), nullptr, 0};
  b.tuple_size = s.tuple_size();
  b.first_index = first_index;
  return b;
}

int64_t TsAt(const StreamBatch& b, size_t i) {
  int64_t ts;
  std::memcpy(&ts, b.tuple(i), sizeof(ts));
  return ts;
}

QueryDef SumCountQuery(const char* name, WindowDefinition w, bool grouped) {
  Schema s = SynSchema();
  QueryBuilder b(name, s);
  b.Window(w);
  if (grouped) b.GroupBy({Col(s, "k")});
  b.Aggregate(AggregateFunction::kSum, Col(s, "v"), "sv");
  b.Aggregate(AggregateFunction::kCount, nullptr, "n");
  return b.Build();
}

TEST(WorkGroupCuts, CutOnlyWhereTheOutputIsAdditive) {
  Schema s = SynSchema();
  constexpr size_t kTuples = 65536;
  constexpr size_t kGroups = 4;
  auto stream = RandomStream(s, kTuples, 51, /*max_ts_gap=*/4);
  // Count panes of 48 tuples do not start at the batch's first tuple.
  const StreamBatch b = BatchOf(stream, s, kTuples, /*first_index=*/1000);

  auto cuts_of = [&](const QueryDef& q) {
    std::vector<size_t> cuts = WorkGroupCuts(q, b, kGroups);
    EXPECT_GE(cuts.size(), 2u) << q.name;
    if (cuts.size() < 2) return std::vector<size_t>{};
    EXPECT_EQ(cuts.front(), 0u) << q.name;
    EXPECT_EQ(cuts.back(), kTuples) << q.name;
    EXPECT_LE(cuts.size(), kGroups + 1) << q.name;
    for (size_t k = 1; k < cuts.size(); ++k) {
      EXPECT_GE(cuts[k] - cuts[k - 1], kMinWorkGroupTuples) << q.name;
    }
    return std::vector<size_t>(cuts.begin() + 1, cuts.end() - 1);  // interior
  };

  QueryDef proj = QueryBuilder("cut_proj", s).Where(Gt(Col(s, "k"), Lit(2))).Build();
  EXPECT_EQ(cuts_of(proj).size(), kGroups - 1);

  for (bool grouped : {false, true}) {
    std::vector<size_t> cuts =
        cuts_of(SumCountQuery("cut_cnt", WindowDefinition::Count(96, 48), grouped));
    EXPECT_FALSE(cuts.empty());
    for (size_t c : cuts) EXPECT_EQ((1000 + c) % 48, 0u) << c;

    cuts = cuts_of(SumCountQuery("cut_time", WindowDefinition::Time(40, 10), grouped));
    EXPECT_FALSE(cuts.empty());
    for (size_t c : cuts) EXPECT_NE(TsAt(b, c - 1) / 10, TsAt(b, c) / 10) << c;

    cuts = cuts_of(SumCountQuery("cut_session", WindowDefinition::Session(3), grouped));
    EXPECT_FALSE(cuts.empty());
    for (size_t c : cuts) {
      EXPECT_FALSE(SessionExtends(TsAt(b, c - 1), TsAt(b, c), 3)) << c;
    }
  }

  QueryBuilder jb("cut_join", s, s);
  jb.Window(WindowDefinition::Count(16, 8));
  jb.JoinOn(Eq(Col(s, "k"), Col(s, "k", Side::kRight)));
  QueryDef join = jb.Build();
  EXPECT_TRUE(cuts_of(join).empty());
  QueryDef udf = QueryBuilder("cut_udf", s)
                     .Window(WindowDefinition::Time(24, 6))
                     .Udf(std::make_shared<MedianUdf>(Col(s, "v")))
                     .Build();
  EXPECT_TRUE(cuts_of(udf).empty());

  // A batch under two minimum-size groups stays one group.
  StreamBatch small = b;
  small.data.len1 = (2 * kMinWorkGroupTuples - 1) * s.tuple_size();
  EXPECT_EQ(WorkGroupCuts(proj, small, kGroups),
            (std::vector<size_t>{0, 2 * kMinWorkGroupTuples - 1}));
}

/// Queries whose device tasks split into several work groups: a filtered
/// projection, and sum/count over count, time and session windows, each
/// grouped and ungrouped.
std::vector<QueryDef> SplitQueries() {
  Schema s = SynSchema();
  std::vector<QueryDef> qs;
  qs.push_back(QueryBuilder("split_proj", s)
                   .Where(Gt(Col(s, "k"), Lit(0)))
                   .Select(Col(s, "timestamp"), "timestamp")
                   .Select(Mul(Col(s, "v"), Lit(3.0)), "v3")
                   .Build());
  for (bool grouped : {false, true}) {
    qs.push_back(
        SumCountQuery("split_cnt", WindowDefinition::Count(1024, 256), grouped));
    qs.push_back(
        SumCountQuery("split_time", WindowDefinition::Time(256, 64), grouped));
    qs.push_back(
        SumCountQuery("split_session", WindowDefinition::Session(3), grouped));
  }
  return qs;
}

constexpr size_t kSplitTuples = 40000;
constexpr size_t kSplitBatch = 20000;  // ~5000 tuples per group

TEST_F(GpuOperatorTest, WorkGroupsMatchCpuOnNonIntegralFloats) {
  Schema s = SynSchema();
  auto stream = SplitStream(s, kSplitTuples, 61, /*non_integral=*/true);
  const size_t groups = static_cast<size_t>(device_->options().num_executors);
  for (const QueryDef& q : SplitQueries()) {
    ASSERT_GT(
        WorkGroupCuts(q, BatchOf(stream, s, kSplitBatch, 0), groups).size(),
        3u)
        << q.name;
    auto gpu = MakeTestGpuOperator(&q, device_.get());
    auto cpu = MakeCpuOperator(&q);
    ByteBuffer g = RunSingleInput(*gpu, q, stream, kSplitBatch);
    ByteBuffer c = RunSingleInput(*cpu, q, stream, kSplitBatch);
    EXPECT_GT(g.size(), 0u) << q.name;
    EXPECT_TRUE(BuffersEqual(g, c, q.output_schema.tuple_size())) << q.name;
  }
}

TEST_F(GpuOperatorTest, WorkGroupsMatchReferenceOnIntegralValues) {
  auto stream = SplitStream(SynSchema(), kSplitTuples, 63,
                            /*non_integral=*/false);
  for (const QueryDef& q : SplitQueries()) {
    auto gpu = MakeTestGpuOperator(&q, device_.get());
    ByteBuffer want = ReferenceEvaluate(q, stream);
    ByteBuffer got = RunSingleInput(*gpu, q, stream, kSplitBatch);
    EXPECT_GT(got.size(), 0u) << q.name;
    EXPECT_TRUE(BuffersEqual(got, want, q.output_schema.tuple_size()))
        << q.name;
  }
}

// Property sweep mirroring the CPU one: the GPGPU back end must agree with
// the reference under every window/batch combination. Padding-free, hence
// the integer flags: gtest names each case by dumping its bytes, and
// uninitialised padding would change the test names between builds.
struct GpuAggCase {
  int64_t time_based;  // 0 or 1
  int64_t size, slide;
  size_t batch;
  int64_t grouped;  // 0 or 1
};
static_assert(std::has_unique_object_representations_v<GpuAggCase>);

class GpuAggregationPropertyTest : public ::testing::TestWithParam<GpuAggCase> {
 protected:
  void SetUp() override {
    SimDeviceOptions o;
    o.pace_transfers = false;
    device_ = std::make_unique<SimDevice>(o);
  }
  std::unique_ptr<SimDevice> device_;
};

TEST_P(GpuAggregationPropertyTest, MatchesReference) {
  const GpuAggCase& c = GetParam();
  Schema s = SynSchema();
  QueryBuilder b("gprop", s);
  b.Window(c.time_based ? WindowDefinition::Time(c.size, c.slide)
                        : WindowDefinition::Count(c.size, c.slide));
  if (c.grouped) b.GroupBy({Col(s, "k")});
  b.Aggregate(AggregateFunction::kSum, Col(s, "v"));
  b.Aggregate(AggregateFunction::kCount, nullptr);
  QueryDef q = b.Build();
  auto op = MakeTestGpuOperator(&q, device_.get());
  auto stream = RandomStream(s, 600, static_cast<uint32_t>(c.size * 7 + c.slide));
  ByteBuffer want = ReferenceEvaluate(q, stream);
  ByteBuffer got = RunSingleInput(*op, q, stream, c.batch);
  EXPECT_TRUE(BuffersEqual(got, want, q.output_schema.tuple_size()));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GpuAggregationPropertyTest,
    ::testing::Values(GpuAggCase{false, 1, 1, 7, false},
                      GpuAggCase{false, 8, 2, 64, false},
                      GpuAggCase{false, 16, 16, 100, true},
                      GpuAggCase{false, 32, 8, 600, true},
                      GpuAggCase{true, 5, 1, 50, false},
                      GpuAggCase{true, 10, 10, 13, true},
                      GpuAggCase{true, 24, 6, 250, false},
                      GpuAggCase{true, 3, 1, 9, true}));

// ---------------------------------------------------------------------------
// UDF collection kernel: the simulated device's pane-collection output must
// be byte-identical to the CPU fragment collector, for single- and two-input
// UDF queries, across window types.
// ---------------------------------------------------------------------------

TEST_F(GpuOperatorTest, UdfCollectionMatchesCpuSingleInput) {
  Schema s = SynSchema();
  QueryDef q = QueryBuilder("gudf", s)
                   .Window(WindowDefinition::Time(24, 6))
                   .Udf(std::make_shared<MedianUdf>(Col(s, "v")))
                   .Build();
  auto gpu = MakeTestGpuOperator(&q, device_.get());
  auto cpu = MakeCpuOperator(&q);
  auto stream = RandomStream(s, 4000, 91);
  ByteBuffer g = RunSingleInput(*gpu, q, stream, 333);
  ByteBuffer c = RunSingleInput(*cpu, q, stream, 333);
  EXPECT_TRUE(BuffersEqual(g, c, q.output_schema.tuple_size()));
  EXPECT_GT(g.size(), 0u);
}

TEST_F(GpuOperatorTest, UdfCollectionMatchesCpuTwoInput) {
  Schema s = SynSchema();
  QueryDef q = MakePartitionJoinQuery("gpj", s, s, WindowDefinition::Time(8, 8),
                                      Col(s, "k"), Col(s, "k"));
  auto gpu = MakeTestGpuOperator(&q, device_.get());
  auto cpu = MakeCpuOperator(&q);
  auto l = RandomStream(s, 2500, 92);
  auto r = RandomStream(s, 2500, 93);
  ByteBuffer g = RunJoin(*gpu, q, l, r, 16);
  ByteBuffer c = RunJoin(*cpu, q, l, r, 16);
  EXPECT_TRUE(BuffersEqual(g, c, q.output_schema.tuple_size()));
  EXPECT_GT(g.size(), 0u);
}

TEST_F(GpuOperatorTest, UdfCollectionCountBasedWindows) {
  Schema s = SynSchema();
  QueryDef q = QueryBuilder("gudf_cnt", s)
                   .Window(WindowDefinition::Count(128, 32))
                   .Udf(std::make_shared<MedianUdf>(Col(s, "v")))
                   .Build();
  auto gpu = MakeTestGpuOperator(&q, device_.get());
  auto stream = RandomStream(s, 3000, 94);
  ByteBuffer want = ReferenceEvaluate(q, stream);
  ByteBuffer got = RunSingleInput(*gpu, q, stream, 500);
  EXPECT_TRUE(BuffersEqual(got, want, q.output_schema.tuple_size()));
  EXPECT_GT(got.size(), 0u);
}

TEST_F(GpuOperatorTest, DeviceStatsAccumulateAcrossUdfJobs) {
  Schema s = SynSchema();
  QueryDef q = QueryBuilder("gudf_stats", s)
                   .Window(WindowDefinition::Count(64, 64))
                   .Udf(std::make_shared<MedianUdf>(Col(s, "v")))
                   .Build();
  auto gpu = MakeTestGpuOperator(&q, device_.get());
  auto stream = RandomStream(s, 2000, 95);
  RunSingleInput(*gpu, q, stream, 250);  // 8 batches
  EXPECT_EQ(device_->stats().jobs.load(), 8);
  EXPECT_EQ(device_->stats().bytes_in.load(),
            static_cast<int64_t>(stream.size()));
  // Collection ships every input byte back as pane payload (plus headers).
  EXPECT_GT(device_->stats().bytes_out.load(),
            static_cast<int64_t>(stream.size()));
}

}  // namespace
}  // namespace saber
