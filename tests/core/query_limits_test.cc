#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/query.h"

/// Operator-limit validation (kMaxAggregatesPerQuery / kMaxGroupKeyBytes /
/// CompiledExpr::kMaxStack):
/// misuse must fail at query-build time with a clear Status — or, for
/// hand-assembled QueryDefs, abort at Engine::AddQuery with the limit named
/// in the message — never mid-task on a worker thread.
///
/// Lifecycle-misuse validation rides along: TryAddQuery / RemoveQuery /
/// SetSink turn every caller mistake (capacity exhausted, foreign handle,
/// double removal, connected pair, bad weight) into a Status with the
/// offending query named, never an abort or a wedged pipeline.

namespace saber {
namespace {

Schema TestSchema() {
  return Schema::MakeStream({{"v", DataType::kInt32}, {"k", DataType::kInt64}});
}

QueryBuilder WithAggregates(size_t n) {
  Schema s = TestSchema();
  QueryBuilder b("limits", s);
  b.Window(WindowDefinition::Count(4, 4));
  for (size_t i = 0; i < n; ++i) {
    b.Aggregate(AggregateFunction::kSum, Col(s, "v"));
  }
  return b;
}

QueryBuilder WithGroupKeys(size_t n) {
  Schema s = TestSchema();
  QueryBuilder b("limits", s);
  b.Window(WindowDefinition::Count(4, 4));
  std::vector<ExprPtr> keys;
  for (size_t i = 0; i < n; ++i) keys.push_back(Col(s, "k"));
  b.GroupBy(std::move(keys));
  b.Aggregate(AggregateFunction::kCount, nullptr);
  return b;
}

TEST(QueryLimitsTest, MaxAggregatesAcceptedAtTheBoundary) {
  Result<QueryDef> r = WithAggregates(kMaxAggregatesPerQuery).TryBuild();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().aggregates.size(), kMaxAggregatesPerQuery);
}

TEST(QueryLimitsTest, TooManyAggregatesIsInvalidArgument) {
  Result<QueryDef> r = WithAggregates(kMaxAggregatesPerQuery + 1).TryBuild();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("kMaxAggregatesPerQuery"),
            std::string::npos)
      << r.status().ToString();
}

TEST(QueryLimitsTest, MaxGroupKeysAcceptedAtTheBoundary) {
  Result<QueryDef> r = WithGroupKeys(kMaxGroupKeyBytes / 8).TryBuild();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
}

TEST(QueryLimitsTest, TooManyGroupKeysIsInvalidArgument) {
  Result<QueryDef> r = WithGroupKeys(kMaxGroupKeyBytes / 8 + 1).TryBuild();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("kMaxGroupKeyBytes"), std::string::npos)
      << r.status().ToString();
}

QueryDef SimpleSelection(const std::string& name) {
  Schema s = TestSchema();
  return QueryBuilder(name, s).Where(Gt(Col(s, "v"), Lit(0))).Build();
}

EngineOptions TinyEngine(size_t max_queries) {
  EngineOptions o;
  o.num_cpu_workers = 1;
  o.use_gpu = false;
  o.max_queries = max_queries;
  return o;
}

TEST(QueryLifecycleStatusTest, AdmissionBeyondCapacityIsResourceExhausted) {
  Engine engine(TinyEngine(2));
  ASSERT_TRUE(engine.TryAddQuery(SimpleSelection("a")).ok());
  ASSERT_TRUE(engine.TryAddQuery(SimpleSelection("b")).ok());
  Result<QueryHandle*> r = engine.TryAddQuery(SimpleSelection("c"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(r.status().message().find("max_queries"), std::string::npos)
      << r.status().ToString();
}

TEST(QueryLifecycleStatusTest, RemovalRecyclesTheSlot) {
  Engine engine(TinyEngine(2));
  Result<QueryHandle*> a = engine.TryAddQuery(SimpleSelection("a"));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(engine.TryAddQuery(SimpleSelection("b")).ok());
  ASSERT_TRUE(engine.RemoveQuery(a.value()).ok());
  EXPECT_EQ(a.value()->lifecycle(), QueryLifecycle::kRetired);
  EXPECT_EQ(engine.num_live_queries(), 1u);
  Result<QueryHandle*> c = engine.TryAddQuery(SimpleSelection("c"));
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_EQ(c.value()->index(), a.value()->index());  // lowest free slot
}

TEST(QueryLifecycleStatusTest, NonPositiveWeightIsInvalidArgument) {
  Engine engine(TinyEngine(4));
  for (const double w : {0.0, -1.0}) {
    // Build a valid def first (Build aborts on invalid weights), then
    // corrupt it by hand: TryAddQuery must still catch it at admission.
    QueryDef def = SimpleSelection("weighted");
    def.weight = w;
    Result<QueryHandle*> r = engine.TryAddQuery(std::move(def));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find("weight"), std::string::npos)
        << r.status().ToString();
  }
}

TEST(QueryLifecycleStatusTest, TooDeepExpressionIsInvalidArgumentAtAdmission) {
  // Hand-built definitions bypass TryBuild: admission must reject every
  // compiled expression role before it constructs the operators, whose
  // Compile would abort the process.
  Schema s = TestSchema();
  const size_t too_deep = CompiledExpr::kMaxStack + 1;
  auto deep = [&](Side side = Side::kLeft) {  // right-nested: depth slots
    ExprPtr e = Col(s, "v", side);
    for (size_t i = 1; i < too_deep; ++i) e = Add(Col(s, "v", side), e);
    return e;
  };
  QueryDef select = QueryBuilder("select", s)
                        .Select(Col(s, "timestamp"), "timestamp")
                        .Select(Col(s, "v"), "v")
                        .Build();
  QueryDef agg = WithGroupKeys(1).Build();
  agg.aggregates.push_back(
      AggregateSpec{AggregateFunction::kSum, Col(s, "v"), "sum"});
  QueryDef join = QueryBuilder("join", s, s)
                      .JoinOn(Eq(Col(s, "v"), Col(s, "v", Side::kRight)))
                      .Build();
  struct Case {
    QueryDef def;
    const char* role;
  };
  std::vector<Case> cases;
  cases.push_back({SimpleSelection("where"), "WHERE"});
  cases.back().def.where = Gt(deep(), Lit(0));
  cases.push_back({select, "SELECT"});
  cases.back().def.select[1] = deep();
  cases.push_back({agg, "aggregate input"});
  cases.back().def.aggregates.back().input = deep();
  cases.push_back({agg, "GROUP BY"});
  cases.back().def.group_by[0] = deep();
  cases.push_back({join, "join predicate"});
  cases.back().def.join_predicate = Eq(deep(), Col(s, "v", Side::kRight));
  cases.push_back({join, "join projection"});
  cases.back().def.join_select[1] = deep(Side::kRight);

  Engine engine(TinyEngine(2));
  for (Case& c : cases) {
    Result<QueryHandle*> r = engine.TryAddQuery(std::move(c.def));
    ASSERT_FALSE(r.ok()) << c.role;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    const std::string& msg = r.status().message();
    EXPECT_NE(msg.find(StrCat(c.role, " expression needs ", too_deep,
                              " stack slots")),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("CompiledExpr::kMaxStack=64"), std::string::npos)
        << msg;
  }
  EXPECT_EQ(engine.num_live_queries(), 0u);
  EXPECT_TRUE(engine.TryAddQuery(SimpleSelection("valid")).ok());
}

TEST(QueryLifecycleStatusTest, RemoveQueryOnForeignHandleIsNotFound) {
  Engine owner(TinyEngine(2));
  Engine other(TinyEngine(2));
  Result<QueryHandle*> q = owner.TryAddQuery(SimpleSelection("a"));
  ASSERT_TRUE(q.ok());
  Status s = other.RemoveQuery(q.value());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(other.RemoveQuery(nullptr).code(), StatusCode::kNotFound);
  // The owner can still remove it: the failed foreign call changed nothing.
  EXPECT_TRUE(owner.RemoveQuery(q.value()).ok());
}

TEST(QueryLifecycleStatusTest, DoubleRemovalIsInvalidArgument) {
  Engine engine(TinyEngine(2));
  Result<QueryHandle*> q = engine.TryAddQuery(SimpleSelection("a"));
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(engine.RemoveQuery(q.value()).ok());
  Status again = engine.RemoveQuery(q.value());
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(again.message().find("retired"), std::string::npos)
      << again.ToString();
}

TEST(QueryLifecycleStatusTest, ConnectedPairMembersAreNotRemovable) {
  Engine engine(TinyEngine(4));
  // A selection's output schema equals its input schema, so it can feed a
  // second identical selection (the SG3 chaining shape, minimized).
  Result<QueryHandle*> from = engine.TryAddQuery(SimpleSelection("from"));
  Result<QueryHandle*> to = engine.TryAddQuery(SimpleSelection("to"));
  ASSERT_TRUE(from.ok());
  ASSERT_TRUE(to.ok());
  engine.Connect(from.value(), to.value());
  for (QueryHandle* q : {from.value(), to.value()}) {
    Status s = engine.RemoveQuery(q);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(s.message().find("connected"), std::string::npos)
        << s.ToString();
  }
  // An unconnected bystander in the same engine stays removable.
  Result<QueryHandle*> lone = engine.TryAddQuery(SimpleSelection("lone"));
  ASSERT_TRUE(lone.ok());
  EXPECT_TRUE(engine.RemoveQuery(lone.value()).ok());
}

TEST(QueryLifecycleStatusTest, HandleStatisticsSurviveRetirement) {
  Engine engine(TinyEngine(2));
  Result<QueryHandle*> r = engine.TryAddQuery(SimpleSelection("a"));
  ASSERT_TRUE(r.ok());
  QueryHandle* q = r.value();
  ASSERT_TRUE(q->SetSink([](const uint8_t*, size_t) {}).ok());
  engine.Start();
  const Schema s = TestSchema();
  std::vector<uint8_t> tuples(64 * s.tuple_size(), 0);
  q->Insert(tuples.data(), tuples.size());
  const int64_t fed = q->tuples_in();
  ASSERT_TRUE(engine.RemoveQuery(q).ok());
  // The handle outlives the slot: statistics freeze instead of dangling,
  // and late inserts are dropped + counted, not crashed.
  EXPECT_EQ(q->lifecycle(), QueryLifecycle::kRetired);
  EXPECT_EQ(q->tuples_in(), fed);
  q->Insert(tuples.data(), tuples.size());
  EXPECT_EQ(q->tuples_in(), fed);
  EXPECT_EQ(q->tuples_dropped(), 64);
  engine.Stop();
}

TEST(QueryLimitsDeathTest, BuildAbortsWithClearMessage) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(WithAggregates(kMaxAggregatesPerQuery + 1).Build(),
               "InvalidArgument.*kMaxAggregatesPerQuery");
}

TEST(QueryLimitsDeathTest, AddQueryRejectsHandBuiltDefOverLimit) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Bypass QueryBuilder entirely: a hand-assembled QueryDef must still fail
  // at registration, not when the first task runs.
  Schema s = TestSchema();
  QueryDef def;
  def.name = "hand-built";
  def.input_schema[0] = s;
  def.window[0] = WindowDefinition::Count(4, 4);
  for (size_t i = 0; i <= kMaxAggregatesPerQuery; ++i) {
    def.aggregates.push_back(
        AggregateSpec{AggregateFunction::kSum, Col(s, "v"), "a"});
  }
  EXPECT_DEATH(
      {
        EngineOptions o;
        o.num_cpu_workers = 1;
        o.use_gpu = false;
        Engine engine(o);
        engine.AddQuery(std::move(def));
      },
      "Engine::AddQuery.*kMaxAggregatesPerQuery");
}

TEST(QueryLimitsDeathTest, TaskSizeAboveInputBufferAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // The dispatcher cuts a task once φ bytes are buffered, so a φ beyond the
  // input buffer would never be cut. The engine refuses it up front, the
  // same way it refuses a max_queries outside its slot range.
  EngineOptions o = TinyEngine(1);
  o.input_buffer_size = 1 << 20;
  o.task_size = o.input_buffer_size;
  { Engine at_capacity(o); }
  o.task_size = o.input_buffer_size + 1;
  EXPECT_DEATH({ Engine engine(o); },
               "SABER_CHECK failed.*task_size <= options_.input_buffer_size");
}

}  // namespace
}  // namespace saber
