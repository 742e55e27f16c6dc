#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "reference/reference.h"
#include "test_util.h"
#include "workloads/synthetic.h"

namespace saber {
namespace {

using testing::BuffersEqual;
using testing::MakeStream;
using testing::RandomStream;
using testing::RunSingleInput;

Schema SynSchema() {
  return Schema::MakeStream({{"v", DataType::kFloat},
                             {"k", DataType::kInt32},
                             {"k2", DataType::kInt32}});
}

TEST(AggregationOp, TumblingCountSum) {
  Schema s = SynSchema();
  QueryDef q = QueryBuilder("aggsum", s)
                   .Window(WindowDefinition::Count(4, 4))
                   .Aggregate(AggregateFunction::kSum, Col(s, "v"), "total")
                   .Build();
  auto op = MakeCpuOperator(&q);
  // 4 windows of 4 tuples with v = 1..16: sums 10, 26, 42, 58.
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 16; ++i) {
    rows.push_back({static_cast<double>(i), static_cast<double>(i + 1), 0, 0});
  }
  auto stream = MakeStream(s, rows);
  ByteBuffer got = RunSingleInput(*op, q, stream, 5);
  ASSERT_EQ(got.size(), 4 * q.output_schema.tuple_size());
  const double expect[] = {10, 26, 42, 58};
  for (int i = 0; i < 4; ++i) {
    TupleRef r(got.data() + i * q.output_schema.tuple_size(), &q.output_schema);
    EXPECT_DOUBLE_EQ(r.GetDouble(1), expect[i]) << i;
    EXPECT_EQ(r.timestamp(), 4 * i + 3);  // max ts in window
  }
}

TEST(AggregationOp, SlidingCountWindow) {
  Schema s = SynSchema();
  QueryDef q = QueryBuilder("slide", s)
                   .Window(WindowDefinition::Count(6, 2))
                   .Aggregate(AggregateFunction::kAvg, Col(s, "v"), "a")
                   .Build();
  auto op = MakeCpuOperator(&q);
  auto stream = RandomStream(s, 100, 7);
  ByteBuffer want = ReferenceEvaluate(q, stream);
  ByteBuffer got = RunSingleInput(*op, q, stream, 9);
  EXPECT_TRUE(BuffersEqual(got, want, q.output_schema.tuple_size()));
}

TEST(AggregationOp, TimeWindowsWithGaps) {
  Schema s = SynSchema();
  QueryDef q = QueryBuilder("time", s)
                   .Window(WindowDefinition::Time(10, 3))
                   .Aggregate(AggregateFunction::kSum, Col(s, "v"), "t")
                   .Build();
  auto op = MakeCpuOperator(&q);
  // Timestamps with large gaps (sparse stream).
  auto stream = RandomStream(s, 150, 8, /*max_ts_gap=*/9);
  ByteBuffer want = ReferenceEvaluate(q, stream);
  ByteBuffer got = RunSingleInput(*op, q, stream, 11);
  EXPECT_TRUE(BuffersEqual(got, want, q.output_schema.tuple_size()));
}

TEST(AggregationOp, MinMaxUsesMergePath) {
  Schema s = SynSchema();
  QueryDef q = QueryBuilder("minmax", s)
                   .Window(WindowDefinition::Count(8, 3))
                   .Aggregate(AggregateFunction::kMin, Col(s, "v"), "lo")
                   .Aggregate(AggregateFunction::kMax, Col(s, "v"), "hi")
                   .Build();
  auto op = MakeCpuOperator(&q);
  auto stream = RandomStream(s, 120, 9);
  ByteBuffer want = ReferenceEvaluate(q, stream);
  ByteBuffer got = RunSingleInput(*op, q, stream, 10);
  EXPECT_TRUE(BuffersEqual(got, want, q.output_schema.tuple_size()));
}

TEST(AggregationOp, SpikeLeavesNoResidueInLaterWindows) {
  // a1 = 1.0 everywhere except 1e17 at tuple 1000. A sliding sum that
  // subtracts expiring panes keeps a rounding residue of the spike in every
  // later window; every window that excludes the spike must instead equal
  // the reference byte for byte. Windows holding the spike may differ: the
  // float sum depends on association order.
  constexpr size_t kTuples = 5000;
  constexpr size_t kSpike = 1000;
  constexpr int64_t kSize = 64;
  Schema s = syn::SyntheticSchema();
  auto stream = syn::Generate(kTuples, {.tuples_per_ts = 1});
  const size_t a1 = s.field(s.FieldIndex("a1")).offset;
  for (size_t i = 0; i < kTuples; ++i) {
    const float v = i == kSpike ? 1e17f : 1.0f;
    std::memcpy(stream.data() + i * s.tuple_size() + a1, &v, sizeof(v));
  }
  for (WindowDefinition w : {WindowDefinition::Count(kSize, 1),
                             WindowDefinition::Time(kSize, 1)}) {
    QueryDef q = syn::MakeAggregation(AggregateFunction::kSum, w);
    auto op = MakeCpuOperator(&q);
    ByteBuffer want = ReferenceEvaluate(q, stream);
    ByteBuffer got = RunSingleInput(*op, q, stream, 700);
    ASSERT_EQ(got.size(), want.size()) << w.ToString();
    // One tuple per timestamp, slide 1: row j is the window over tuples
    // [j, j + kSize) on either axis.
    const size_t row = q.output_schema.tuple_size();
    for (size_t j = 0; j * row < got.size(); ++j) {
      if (j + kSize > kSpike && j <= kSpike) continue;
      EXPECT_EQ(std::memcmp(got.data() + j * row, want.data() + j * row, row), 0)
          << w.ToString() << " window " << j;
    }
  }
}

TEST(AggregationOp, WhereFilterInsideWindows) {
  Schema s = SynSchema();
  QueryDef q = QueryBuilder("filtered", s)
                   .Window(WindowDefinition::Count(5, 5))
                   .Where(Gt(Col(s, "k"), Lit(3)))
                   .Aggregate(AggregateFunction::kCount, nullptr, "n")
                   .Build();
  auto op = MakeCpuOperator(&q);
  auto stream = RandomStream(s, 200, 10);
  ByteBuffer want = ReferenceEvaluate(q, stream);
  ByteBuffer got = RunSingleInput(*op, q, stream, 12);
  EXPECT_TRUE(BuffersEqual(got, want, q.output_schema.tuple_size()));
}

TEST(AggregationOp, GroupByWithHaving) {
  Schema s = SynSchema();
  QueryDef q = QueryBuilder("grp", s)
                   .Window(WindowDefinition::Count(10, 5))
                   .GroupBy({Col(s, "k")})
                   .Aggregate(AggregateFunction::kSum, Col(s, "v"), "sv")
                   .Having(Gt(Col(s, "k") /*placeholder replaced below*/, Lit(-1)))
                   .Build();
  // Build HAVING over the *output* schema: sv > 8.
  q.having = Gt(Col(q.output_schema, "sv"), Lit(8.0));
  auto op = MakeCpuOperator(&q);
  auto stream = RandomStream(s, 300, 11);
  ByteBuffer want = ReferenceEvaluate(q, stream);
  ByteBuffer got = RunSingleInput(*op, q, stream, 17);
  EXPECT_TRUE(BuffersEqual(got, want, q.output_schema.tuple_size()));
  EXPECT_GT(got.size(), 0u);
}

TEST(AggregationOp, MultiKeyGroupBy) {
  Schema s = SynSchema();
  QueryDef q = QueryBuilder("grp2", s)
                   .Window(WindowDefinition::Time(8, 4))
                   .GroupBy({Col(s, "k"), Col(s, "k2")})
                   .Aggregate(AggregateFunction::kAvg, Col(s, "v"), "av")
                   .Aggregate(AggregateFunction::kCount, nullptr, "n")
                   .Build();
  auto op = MakeCpuOperator(&q);
  auto stream = RandomStream(s, 250, 12, /*max_ts_gap=*/2, /*attr_range=*/4);
  ByteBuffer want = ReferenceEvaluate(q, stream);
  ByteBuffer got = RunSingleInput(*op, q, stream, 21);
  EXPECT_TRUE(BuffersEqual(got, want, q.output_schema.tuple_size()));
}

TEST(AggregationOp, WindowLargerThanStreamEmitsNothing) {
  Schema s = SynSchema();
  QueryDef q = QueryBuilder("big", s)
                   .Window(WindowDefinition::Count(1000, 1000))
                   .Aggregate(AggregateFunction::kSum, Col(s, "v"), "t")
                   .Build();
  auto op = MakeCpuOperator(&q);
  auto stream = RandomStream(s, 50, 13);
  ByteBuffer got = RunSingleInput(*op, q, stream, 10);
  EXPECT_EQ(got.size(), 0u);  // window never closes
}

// Property sweep: engine output must equal the reference for every
// combination of (window type, size, slide, batch size, aggregate mix).
// The struct has no padding, so its flags are integers: gtest names each
// case by dumping its bytes, and uninitialised padding bytes would make the
// test names differ from one build to the next.
struct AggCase {
  int64_t time_based;  // 0 or 1
  int64_t size, slide;
  size_t batch;
  int32_t grouped;  // 0 or 1
  int32_t agg_mix;  // 0: sum, 1: avg+count, 2: min+max, 3: all five
};
static_assert(std::has_unique_object_representations_v<AggCase>);

class AggregationPropertyTest : public ::testing::TestWithParam<AggCase> {};

TEST_P(AggregationPropertyTest, MatchesReference) {
  const AggCase& c = GetParam();
  Schema s = SynSchema();
  QueryBuilder b("prop", s);
  b.Window(c.time_based ? WindowDefinition::Time(c.size, c.slide)
                        : WindowDefinition::Count(c.size, c.slide));
  if (c.grouped) b.GroupBy({Col(s, "k")});
  switch (c.agg_mix) {
    case 0:
      b.Aggregate(AggregateFunction::kSum, Col(s, "v"));
      break;
    case 1:
      b.Aggregate(AggregateFunction::kAvg, Col(s, "v"));
      b.Aggregate(AggregateFunction::kCount, nullptr);
      break;
    case 2:
      b.Aggregate(AggregateFunction::kMin, Col(s, "v"));
      b.Aggregate(AggregateFunction::kMax, Col(s, "v"));
      break;
    default:
      b.Aggregate(AggregateFunction::kSum, Col(s, "v"));
      b.Aggregate(AggregateFunction::kAvg, Col(s, "v"));
      b.Aggregate(AggregateFunction::kCount, nullptr);
      b.Aggregate(AggregateFunction::kMin, Col(s, "v"));
      b.Aggregate(AggregateFunction::kMax, Col(s, "v"));
      break;
  }
  QueryDef q = b.Build();
  auto op = MakeCpuOperator(&q);
  auto stream = RandomStream(s, 400, static_cast<uint32_t>(c.size * 31 + c.slide));
  ByteBuffer want = ReferenceEvaluate(q, stream);
  ByteBuffer got = RunSingleInput(*op, q, stream, c.batch);
  EXPECT_TRUE(BuffersEqual(got, want, q.output_schema.tuple_size()));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AggregationPropertyTest,
    ::testing::Values(
        AggCase{false, 1, 1, 1, false, 0}, AggCase{false, 1, 1, 64, false, 3},
        AggCase{false, 4, 4, 3, false, 1}, AggCase{false, 8, 2, 5, true, 0},
        AggCase{false, 16, 3, 7, false, 2}, AggCase{false, 5, 5, 400, true, 1},
        AggCase{false, 32, 8, 16, true, 3}, AggCase{true, 4, 4, 13, false, 0},
        AggCase{true, 10, 2, 8, true, 1}, AggCase{true, 12, 5, 100, false, 3},
        AggCase{true, 7, 7, 9, true, 2}, AggCase{true, 30, 1, 50, false, 1},
        AggCase{true, 3, 1, 1, true, 3}, AggCase{false, 100, 10, 33, false, 1}));

}  // namespace
}  // namespace saber
