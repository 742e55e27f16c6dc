#include <gtest/gtest.h>

#include <cstring>
#include <random>

#include "reference/reference.h"
#include "test_util.h"

/// Differential fuzz: the batch-at-a-time CPU operators must match the
/// brute-force reference model (src/reference/) byte for byte under
/// randomized schemas, predicates, selectivities, group-by arities,
/// window/pane layouts and batch splits. A wrapped (two-segment) task must
/// also produce exactly the TaskResult of the same tuples in one contiguous
/// segment, for every kernel that iterates ring-buffer segments.

namespace saber {
namespace {

using testing::BuffersEqual;
using testing::RandomStream;
using testing::RunJoin;
using testing::RunSingleInput;

::testing::AssertionResult ResultsBitIdentical(const TaskResult& got,
                                               const TaskResult& want) {
  if (got.complete.size() != want.complete.size() ||
      (got.complete.size() > 0 &&
       std::memcmp(got.complete.data(), want.complete.data(),
                   got.complete.size()) != 0)) {
    return ::testing::AssertionFailure()
           << "complete rows differ (" << got.complete.size() << "B vs "
           << want.complete.size() << "B)";
  }
  if (got.partials.size() != want.partials.size() ||
      (got.partials.size() > 0 &&
       std::memcmp(got.partials.data(), want.partials.data(),
                   got.partials.size()) != 0)) {
    return ::testing::AssertionFailure()
           << "pane partials differ (" << got.partials.size() << "B vs "
           << want.partials.size() << "B)";
  }
  if (got.panes.size() != want.panes.size()) {
    return ::testing::AssertionFailure() << "pane counts differ";
  }
  for (size_t p = 0; p < got.panes.size(); ++p) {
    if (got.panes[p].pane_index != want.panes[p].pane_index ||
        got.panes[p].offset != want.panes[p].offset ||
        got.panes[p].length != want.panes[p].length) {
      return ::testing::AssertionFailure() << "pane entry " << p << " differs";
    }
  }
  if (got.axis_p != want.axis_p || got.axis_q != want.axis_q) {
    return ::testing::AssertionFailure() << "axis range differs";
  }
  return ::testing::AssertionSuccess();
}

// ---------------------------------------------------------------------------
// Random query generation.
// ---------------------------------------------------------------------------

struct Fuzz {
  std::mt19937 rng;
  explicit Fuzz(uint32_t seed) : rng(seed) {}

  int Pick(int lo, int hi) {  // inclusive
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  }

  Schema RandomSchema() {
    std::vector<std::pair<std::string, DataType>> fields;
    const int nf = Pick(2, 4);
    for (int f = 0; f < nf; ++f) {
      static const DataType kTypes[] = {DataType::kInt32, DataType::kInt64,
                                        DataType::kFloat, DataType::kDouble};
      fields.emplace_back(StrCat("f", f), kTypes[Pick(0, 3)]);
    }
    return Schema::MakeStream(std::move(fields));
  }

  /// Random numeric expression over `s`, optionally addressing `right`.
  ExprPtr Num(const Schema& s, const Schema* right, int depth) {
    if (depth == 0 || Pick(0, 9) < 4) {
      if (Pick(0, 9) < 6) {
        if (right != nullptr && Pick(0, 1) == 1) {
          return ColAt(*right, static_cast<size_t>(
                                   Pick(0, static_cast<int>(right->num_fields()) - 1)),
                       Side::kRight);
        }
        return ColAt(s, static_cast<size_t>(
                            Pick(0, static_cast<int>(s.num_fields()) - 1)));
      }
      if (Pick(0, 1) == 0) return Lit(static_cast<int64_t>(Pick(-8, 8)));
      return Lit(static_cast<double>(Pick(-80, 80)) / 10.0);
    }
    ExprPtr a = Num(s, right, depth - 1);
    ExprPtr b = Num(s, right, depth - 1);
    switch (Pick(0, 4)) {
      case 0: return Add(std::move(a), std::move(b));
      case 1: return Sub(std::move(a), std::move(b));
      case 2: return Mul(std::move(a), std::move(b));
      case 3: return Div(std::move(a), std::move(b));
      default: return Mod(std::move(a), std::move(b));
    }
  }

  /// Integer-valued expression (no division): aggregate *inputs* must keep
  /// double addition exact, because the engine sums pane partials and then
  /// merges panes while the reference sums tuples in window order — with
  /// non-representable values the two orders differ in the last ulp, which
  /// a byte-compare against the reference would flag. Streams carry small
  /// integer attribute values, so +,-,* and % stay integral and
  /// double-exact.
  ExprPtr NumExact(const Schema& s, int depth) {
    if (depth == 0 || Pick(0, 9) < 4) {
      if (Pick(0, 2) < 2) {
        return ColAt(s, static_cast<size_t>(
                            Pick(0, static_cast<int>(s.num_fields()) - 1)));
      }
      return Lit(static_cast<int64_t>(Pick(-8, 8)));
    }
    ExprPtr a = NumExact(s, depth - 1);
    ExprPtr b = NumExact(s, depth - 1);
    switch (Pick(0, 3)) {
      case 0: return Add(std::move(a), std::move(b));
      case 1: return Sub(std::move(a), std::move(b));
      case 2: return Mul(std::move(a), std::move(b));
      default: return Mod(std::move(a), std::move(b));
    }
  }

  /// Random predicate; `bias` shifts the comparison threshold to sweep
  /// selectivity from near-0 to near-1.
  ExprPtr Pred(const Schema& s, const Schema* right, int depth) {
    if (depth == 0 || Pick(0, 9) < 5) {
      ExprPtr lhs = Num(s, right, 1);
      ExprPtr rhs =
          Pick(0, 2) == 0 ? Num(s, right, 1) : Lit(static_cast<int64_t>(Pick(-10, 10)));
      switch (Pick(0, 5)) {
        case 0: return Lt(std::move(lhs), std::move(rhs));
        case 1: return Le(std::move(lhs), std::move(rhs));
        case 2: return Eq(std::move(lhs), std::move(rhs));
        case 3: return Ne(std::move(lhs), std::move(rhs));
        case 4: return Ge(std::move(lhs), std::move(rhs));
        default: return Gt(std::move(lhs), std::move(rhs));
      }
    }
    switch (Pick(0, 2)) {
      case 0: return And({Pred(s, right, depth - 1), Pred(s, right, depth - 1)});
      case 1: return Or({Pred(s, right, depth - 1), Pred(s, right, depth - 1)});
      default: return Not(Pred(s, right, depth - 1));
    }
  }

  WindowDefinition RandomWindow() {
    static const int kSizes[] = {1, 2, 3, 4, 6, 8, 12, 16};
    const int64_t size = kSizes[Pick(0, 7)];
    const int64_t slide = 1 + Pick(0, static_cast<int>(size) - 1);
    return Pick(0, 1) == 0 ? WindowDefinition::Count(size, slide)
                           : WindowDefinition::Time(size, slide);
  }

  size_t RandomSplit() {
    static const size_t kSplits[] = {7, 33, 64, 257, 1024, 2500};
    return kSplits[Pick(0, 5)];
  }
};

void RunSingleInputCase(Fuzz& fz, QueryDef q, const std::vector<uint8_t>& data) {
  auto op = MakeCpuOperator(&q);
  ByteBuffer got = RunSingleInput(*op, q, data, fz.RandomSplit());
  ByteBuffer want = ReferenceEvaluate(q, data);
  EXPECT_TRUE(BuffersEqual(got, want, q.output_schema.tuple_size()))
      << q.name;
}

TEST(VectorizedDiffFuzz, StatelessSelectionProjection) {
  for (uint32_t seed = 0; seed < 12; ++seed) {
    Fuzz fz(1000 + seed);
    Schema s = fz.RandomSchema();
    QueryBuilder b("fuzz-stateless", s);
    b.Window(fz.RandomWindow());
    if (fz.Pick(0, 3) > 0) b.Where(fz.Pred(s, nullptr, 2));
    if (fz.Pick(0, 2) > 0) {
      // Explicit projection: ts passthrough + random expressions.
      b.Select(ColAt(s, 0), "timestamp");
      const int nf = fz.Pick(1, 4);
      for (int f = 0; f < nf; ++f) b.Select(fz.Num(s, nullptr, 2));
    }  // else: identity projection (byte forwarding path)
    QueryDef q = b.Build();
    auto data = RandomStream(s, 3000, 77 + seed, /*max_ts_gap=*/2,
                             /*attr_range=*/20);
    RunSingleInputCase(fz, std::move(q), data);
  }
}

TEST(VectorizedDiffFuzz, UngroupedAggregation) {
  for (uint32_t seed = 0; seed < 10; ++seed) {
    Fuzz fz(2000 + seed);
    Schema s = fz.RandomSchema();
    QueryBuilder b("fuzz-agg", s);
    b.Window(fz.RandomWindow());
    if (fz.Pick(0, 2) > 0) b.Where(fz.Pred(s, nullptr, 2));
    const int na = fz.Pick(1, 4);
    static const AggregateFunction kFns[] = {
        AggregateFunction::kCount, AggregateFunction::kSum,
        AggregateFunction::kAvg, AggregateFunction::kMin,
        AggregateFunction::kMax};
    for (int a = 0; a < na; ++a) {
      const AggregateFunction fn = kFns[fz.Pick(0, 4)];
      b.Aggregate(fn, fn == AggregateFunction::kCount && fz.Pick(0, 1) == 0
                          ? nullptr
                          : fz.NumExact(s, 2));
    }
    QueryDef q = b.Build();
    auto data = RandomStream(s, 2500, 177 + seed, /*max_ts_gap=*/3,
                             /*attr_range=*/15);
    RunSingleInputCase(fz, std::move(q), data);
  }
}

TEST(VectorizedDiffFuzz, GroupedAggregation) {
  for (uint32_t seed = 0; seed < 10; ++seed) {
    Fuzz fz(3000 + seed);
    Schema s = fz.RandomSchema();
    QueryBuilder b("fuzz-group", s);
    b.Window(fz.RandomWindow());
    if (fz.Pick(0, 2) > 0) b.Where(fz.Pred(s, nullptr, 2));
    const int nk = fz.Pick(1, 3);
    std::vector<ExprPtr> keys;
    for (int k = 0; k < nk; ++k) {
      // Group keys must be integral: mod an integer-lane expression.
      keys.push_back(Mod(ColAt(s, static_cast<size_t>(fz.Pick(
                             0, static_cast<int>(s.num_fields()) - 1))),
                         Lit(static_cast<int64_t>(fz.Pick(2, 12)))));
    }
    b.GroupBy(std::move(keys));
    const int na = fz.Pick(1, 3);
    for (int a = 0; a < na; ++a) {
      b.Aggregate(AggregateFunction::kSum, fz.NumExact(s, 2));
    }
    QueryDef q = b.Build();
    auto data = RandomStream(s, 2500, 277 + seed, /*max_ts_gap=*/2,
                             /*attr_range=*/25);
    RunSingleInputCase(fz, std::move(q), data);
  }
}

TEST(VectorizedDiffFuzz, ThetaJoin) {
  for (uint32_t seed = 0; seed < 8; ++seed) {
    Fuzz fz(4000 + seed);
    Schema ls = fz.RandomSchema();
    Schema rs = fz.RandomSchema();
    QueryBuilder b("fuzz-join", ls, rs);
    const WindowDefinition w = fz.RandomWindow();
    b.Window(w);
    b.JoinOn(fz.Pred(ls, &rs, 2));
    QueryDef q = b.Build();  // default join projection: ts + both sides
    auto op = MakeCpuOperator(&q);
    auto s0 = RandomStream(ls, 500, 377 + seed, /*max_ts_gap=*/2,
                           /*attr_range=*/10);
    auto s1 = RandomStream(rs, 500, 477 + seed, /*max_ts_gap=*/2,
                           /*attr_range=*/10);
    const int64_t cut = 1 + fz.Pick(0, 20);
    ByteBuffer got = RunJoin(*op, q, s0, s1, cut);
    ByteBuffer want = ReferenceEvaluate(q, s0, s1);
    EXPECT_TRUE(BuffersEqual(got, want, q.output_schema.tuple_size()))
        << "seed=" << seed;
  }
}

// ---------------------------------------------------------------------------
// Wrapped (two-segment) batches: the operators iterate ring-buffer segments
// explicitly, so a batch whose bytes wrap must produce exactly the
// TaskResult of the same tuples in one contiguous segment.
// ---------------------------------------------------------------------------

TEST(VectorizedDiffFuzz, WrappedBatchSegments) {
  Schema s = Schema::MakeStream({{"v", DataType::kFloat},
                                 {"k", DataType::kInt32}});
  const WindowDefinition panes = WindowDefinition::Count(8, 4);
  const WindowDefinition session = WindowDefinition::Session(1);
  auto where = [&] { return Gt(Col(s, "v"), Lit(3.0)); };
  auto key = [&] { return Mod(Col(s, "k"), Lit(int64_t{5})); };
  std::vector<QueryDef> queries;
  queries.push_back(QueryBuilder("wrap-stateless", s)
                        .Where(where())
                        .Select(Col(s, "timestamp"), "timestamp")
                        .Select(Mul(Col(s, "k"), Col(s, "v")), "kv")
                        .Build());
  queries.push_back(QueryBuilder("wrap-ungrouped", s)
                        .Window(panes)
                        .Where(where())
                        .Aggregate(AggregateFunction::kSum, Col(s, "v"), "t")
                        .Build());
  queries.push_back(QueryBuilder("wrap-grouped", s)
                        .Window(panes)
                        .Where(where())
                        .GroupBy({key()})
                        .Aggregate(AggregateFunction::kSum, Col(s, "v"), "t")
                        .Build());
  queries.push_back(QueryBuilder("wrap-session-ungrouped", s)
                        .Window(session)
                        .Where(where())
                        .Aggregate(AggregateFunction::kSum, Col(s, "v"), "t")
                        .Aggregate(AggregateFunction::kCount, nullptr, "n")
                        .Build());
  queries.push_back(QueryBuilder("wrap-session-grouped", s)
                        .Window(session)
                        .Where(where())
                        .GroupBy({key()})
                        .Aggregate(AggregateFunction::kSum, Col(s, "v"), "t")
                        .Build());

  auto data = RandomStream(s, 600, 99, 2, 10);
  const size_t tsz = s.tuple_size();
  const size_t split = 417;  // odd split inside a pane
  for (const QueryDef& q : queries) {
    auto op = MakeCpuOperator(&q);
    TaskContext ctx;
    ctx.task_id = 0;
    ctx.query = &q;
    ctx.num_inputs = 1;
    StreamBatch& b = ctx.input[0];
    b.data.seg1 = data.data();
    b.data.len1 = 600 * tsz;
    b.tuple_size = tsz;
    b.first_index = 0;
    b.first_ts = TupleRef(data.data(), &s).timestamp();
    b.last_ts = TupleRef(data.data() + 599 * tsz, &s).timestamp();
    b.prev_last_ts = -1;
    TaskResult contiguous;
    op->ProcessBatch(ctx, &contiguous);

    b.data.len1 = split * tsz;
    b.data.seg2 = data.data() + split * tsz;
    b.data.len2 = (600 - split) * tsz;
    TaskResult wrapped;
    op->ProcessBatch(ctx, &wrapped);
    EXPECT_TRUE(ResultsBitIdentical(wrapped, contiguous)) << q.name;
    EXPECT_GT(contiguous.complete.size() + contiguous.partials.size(), 0u)
        << q.name;
  }
}

// ---------------------------------------------------------------------------
// Expressions of any depth up to CompiledExpr::kMaxStack run batch-at-a-time
// and match the reference model.
// ---------------------------------------------------------------------------

TEST(VectorizedDiffFuzz, DeepQueryRunsVectorized) {
  Schema s = Schema::MakeStream({{"v", DataType::kInt32}});
  // Right-leaning chain: every Add keeps its left operand on the stack.
  ExprPtr deep = Col(s, "v");
  for (int i = 0; i < 25; ++i) deep = Add(Col(s, "v"), deep);
  QueryDef q = QueryBuilder("deep", s)
                   .Where(Gt(deep, Lit(int64_t{40})))
                   .Build();
  EXPECT_EQ(CompiledExpr::StackDepth(*q.where, s), 26u);

  auto op = MakeCpuOperator(&q);
  auto data = RandomStream(s, 500, 21, 2, 8);
  ByteBuffer got = RunSingleInput(*op, q, data, 64);
  ByteBuffer want = ReferenceEvaluate(q, data);
  EXPECT_TRUE(BuffersEqual(got, want, q.output_schema.tuple_size()));
  EXPECT_GT(got.size(), 0u);
}

// ---------------------------------------------------------------------------
// Regression: GROUP-BY keys beyond 2^53 survive the compiled path exactly
// (the typed int64 lane). The old double-lane compiler collapsed distinct
// wide keys onto the same rounded value.
// ---------------------------------------------------------------------------

TEST(VectorizedDiffFuzz, GroupKeysBeyondTwoPow53) {
  Schema s = Schema::MakeStream({{"id", DataType::kInt64},
                                 {"v", DataType::kInt32}});
  QueryDef q = QueryBuilder("widekeys", s)
                   .Window(WindowDefinition::Count(8, 8))
                   .GroupBy({Sub(Col(s, "id"), Lit(int64_t{1}))})
                   .Aggregate(AggregateFunction::kCount, nullptr, "n")
                   .Build();
  auto op = MakeCpuOperator(&q);

  const size_t tsz = s.tuple_size();
  const size_t n = 64;
  std::vector<uint8_t> data(n * tsz);
  const int64_t base = (int64_t{1} << 53);
  for (size_t i = 0; i < n; ++i) {
    TupleWriter w(data.data() + i * tsz, &s);
    // Adjacent ids around 2^53: indistinguishable after double rounding.
    w.SetInt64(0, static_cast<int64_t>(i / 8));
    w.SetInt64(1, base + static_cast<int64_t>(i % 4));
    w.SetInt32(2, 1);
  }
  ByteBuffer got = RunSingleInput(*op, q, data, 16);
  ByteBuffer want = ReferenceEvaluate(q, data);
  EXPECT_TRUE(BuffersEqual(got, want, q.output_schema.tuple_size()));
  // 4 distinct groups per window, not 1: the count per group must be 2
  // (8 tuples per window / 4 distinct adjacent ids).
  ASSERT_GT(got.size(), 0u);
  TupleRef first(got.data(), &q.output_schema);
  EXPECT_DOUBLE_EQ(first.GetDouble(2), 2.0);
}

}  // namespace
}  // namespace saber
