#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "sql/parser.h"
#include "workloads/smart_grid.h"
#include "workloads/synthetic.h"

/// \file sql_surface_test.cc
/// The SQL surface contract of the network front end: golden round-trips
/// for every window clause (including `[session gap N]`) and the WITH
/// ingestion options, and — because remote peers submit arbitrary text —
/// the guarantee that *no* statement can abort the process: every invalid
/// query comes back as a Status pinpointing line and column. The
/// subprocess tests cover the paths that used to run through the aborting
/// QueryBuilder::Build.

namespace saber {
namespace {

sql::Catalog MakeCatalog() {
  return sql::Catalog{{"Syn", syn::SyntheticSchema()},
                      {"SmartGridStr", sg::SmartGridSchema()}};
}

// --------------------------------------------------------------------------
// Golden window round-trips.
// --------------------------------------------------------------------------

TEST(SqlSurface, WindowClauseGoldenRoundTrips) {
  const auto catalog = MakeCatalog();
  struct Golden {
    const char* sql;
    WindowDefinition want;
  };
  const Golden cases[] = {
      {"select * from Syn [rows 1024]", WindowDefinition::Count(1024, 1024)},
      {"select * from Syn [rows 1024 slide 256]",
       WindowDefinition::Count(1024, 256)},
      {"select * from Syn [range 60]", WindowDefinition::Time(60, 60)},
      {"select * from Syn [range 3600 slide 1]",
       WindowDefinition::Time(3600, 1)},
      {"select * from Syn [range unbounded]", WindowDefinition::Unbounded()},
      {"select timestamp, sum(a1) as s from Syn [session gap 5]",
       WindowDefinition::Session(5)},
      {"select timestamp, count(*) as n from Syn [session gap 1]",
       WindowDefinition::Session(1)},
  };
  for (const Golden& g : cases) {
    auto r = sql::Parse(g.sql, catalog);
    ASSERT_TRUE(r.ok()) << g.sql << ": " << r.status().ToString();
    EXPECT_EQ(r.value().window[0], g.want) << g.sql;
  }
}

TEST(SqlSurface, SessionWindowBuildsAggregationQuery) {
  auto r = sql::Parse(
      "select timestamp, a3, sum(a1) as total from Syn "
      "[session gap 10] group by a3",
      MakeCatalog());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.value().is_aggregation());
  EXPECT_TRUE(r.value().window[0].session());
  EXPECT_EQ(r.value().window[0].gap(), 10);
}

// --------------------------------------------------------------------------
// WITH clause → IngressSpec.
// --------------------------------------------------------------------------

TEST(SqlSurface, WithClauseDefaultsWhenAbsent) {
  auto r = sql::ParseStatement("select * from Syn [rows 64]", MakeCatalog());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().ingress.allowed_lateness, 0);
  EXPECT_EQ(r.value().ingress.late_policy, ingest::LatePolicy::kAbort);
}

TEST(SqlSurface, WithClauseParsesLatenessAndPolicy) {
  const auto catalog = MakeCatalog();
  auto r = sql::ParseStatement(
      "select * from Syn [rows 64] with lateness 128, late drop", catalog);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().ingress.allowed_lateness, 128);
  EXPECT_EQ(r.value().ingress.late_policy, ingest::LatePolicy::kDropAndCount);

  auto abort_policy = sql::ParseStatement(
      "select * from Syn [rows 64] with late abort", catalog);
  ASSERT_TRUE(abort_policy.ok());
  EXPECT_EQ(abort_policy.value().ingress.late_policy,
            ingest::LatePolicy::kAbort);

  auto dead_letter = sql::ParseStatement(
      "select * from Syn [rows 64] with late deadletter, lateness 7", catalog);
  ASSERT_TRUE(dead_letter.ok());
  EXPECT_EQ(dead_letter.value().ingress.allowed_lateness, 7);
  EXPECT_EQ(dead_letter.value().ingress.late_policy,
            ingest::LatePolicy::kDeadLetter);
}

TEST(SqlSurface, WithClauseComposesWithHaving) {
  // HAVING captures its tokens up to WITH — the clause after it must still
  // parse (regression: the capture used to swallow the rest of the input).
  auto r = sql::ParseStatement(
      "select timestamp, sum(a1) as total from Syn [rows 256] "
      "having total > 100 with lateness 32, late drop",
      MakeCatalog());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r.value().def.having, nullptr);
  EXPECT_EQ(r.value().ingress.allowed_lateness, 32);
  EXPECT_EQ(r.value().ingress.late_policy, ingest::LatePolicy::kDropAndCount);
}

TEST(SqlSurface, WithIsNotASourceAlias) {
  // `Syn [rows 64] with ...` must parse WITH as the clause, not as an alias
  // for the stream (the alias heuristic excludes the keyword).
  auto r = sql::ParseStatement(
      "select * from Syn [rows 64] with lateness 1", MakeCatalog());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().ingress.allowed_lateness, 1);
}

TEST(SqlSurface, WithClauseErrors) {
  const auto catalog = MakeCatalog();
  EXPECT_FALSE(
      sql::ParseStatement("select * from Syn [rows 64] with", catalog).ok());
  EXPECT_FALSE(sql::ParseStatement(
                   "select * from Syn [rows 64] with lateness -3", catalog)
                   .ok());
  EXPECT_FALSE(sql::ParseStatement(
                   "select * from Syn [rows 64] with late maybe", catalog)
                   .ok());
  EXPECT_FALSE(sql::ParseStatement(
                   "select * from Syn [rows 64] with lateness 1 late drop",
                   catalog)
                   .ok());  // missing comma
}

// --------------------------------------------------------------------------
// Errors carry line/column, never a bare byte offset.
// --------------------------------------------------------------------------

TEST(SqlSurface, LexerTracksLineAndColumn) {
  auto r = sql::Tokenize("select *\nfrom Syn\n  [rows 64]");
  ASSERT_TRUE(r.ok());
  const auto& t = r.value();
  EXPECT_EQ(t[0].line, 1);
  EXPECT_EQ(t[0].column, 1);  // select
  EXPECT_EQ(t[2].line, 2);
  EXPECT_EQ(t[2].column, 1);  // from
  EXPECT_EQ(t[4].line, 3);
  EXPECT_EQ(t[4].column, 3);  // [
}

TEST(SqlSurface, LexerErrorNamesLineAndColumn) {
  auto r = sql::Tokenize("select a\nfrom ? x");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 2"), std::string::npos)
      << r.status().message();
  EXPECT_NE(r.status().message().find("column 6"), std::string::npos)
      << r.status().message();
}

TEST(SqlSurface, ParseErrorNamesLineAndColumn) {
  auto r = sql::Parse("select *\nfrom Syn\n[rows zero]", MakeCatalog());
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 3"), std::string::npos)
      << r.status().message();
}

TEST(SqlSurface, SessionGapErrors) {
  const auto catalog = MakeCatalog();
  auto zero = sql::Parse(
      "select timestamp, sum(a1) as s from Syn [session gap 0]", catalog);
  ASSERT_FALSE(zero.ok());
  EXPECT_EQ(zero.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(zero.status().message().find("gap >= 1"), std::string::npos);

  EXPECT_FALSE(sql::Parse("select timestamp, sum(a1) as s from Syn "
                          "[session gap 1.5]",
                          catalog)
                   .ok());
  EXPECT_FALSE(
      sql::Parse("select timestamp, sum(a1) as s from Syn [session 5]",
                 catalog)
          .ok());
}

// --------------------------------------------------------------------------
// No statement may abort the process. These run the statements in a gtest
// death-test subprocess and assert a *clean* exit: the legacy paths used to
// run through the aborting QueryBuilder::Build / WindowDefinition CHECKs.
// --------------------------------------------------------------------------

/// Exits 0 when the statement yields a Status (ok or not) without aborting.
[[noreturn]] void ParseAndExit(const std::string& sql) {
  auto r = sql::Parse(sql, MakeCatalog());
  std::exit(r.ok() ? 1 : 0);  // the statements below must all be rejected
}

using SqlSurfaceDeathTest = ::testing::Test;

TEST(SqlSurfaceDeathTest, ValidateLimitsViolationIsStatusNotAbort) {
  // 17 aggregates exceed kMaxAggregatesPerQuery — the pre-TryBuild parser
  // forwarded this to the aborting Build().
  std::string sql = "select timestamp";
  for (int i = 0; i < 17; ++i) sql += ", sum(a1) as s" + std::to_string(i);
  sql += " from Syn [rows 64]";
  EXPECT_EXIT(ParseAndExit(sql), ::testing::ExitedWithCode(0), "");
}

TEST(SqlSurfaceDeathTest, SessionWithoutAggregationIsStatusNotAbort) {
  // Session windows are aggregation-only; the stateless build used to trip
  // engine-side validation much later (or a CHECK).
  EXPECT_EXIT(ParseAndExit("select * from Syn [session gap 5]"),
              ::testing::ExitedWithCode(0), "");
}

TEST(SqlSurfaceDeathTest, ZeroSessionGapIsStatusNotAbort) {
  // WindowDefinition::Session CHECK-aborts on gap < 1; the parser must
  // reject it before constructing the definition.
  EXPECT_EXIT(ParseAndExit("select timestamp, sum(a1) as s from Syn "
                           "[session gap 0]"),
              ::testing::ExitedWithCode(0), "");
}

/// `select timestamp, a1 + (a1 + (... a1)) as x`: `levels` parenthesized
/// levels, so the compiled program needs levels + 1 stack slots.
std::string NestedSumStatement(int levels) {
  std::string sql = "select timestamp, ";
  for (int i = 0; i < levels; ++i) sql += "a1 + (";
  sql += "a1" + std::string(static_cast<size_t>(levels), ')');
  return sql + " as x from Syn [rows 1024 slide 1024]";
}

/// `select * from Syn [rows 64] where <prefix>...<prefix><tail>`.
std::string RepeatedWhere(const std::string& prefix, int n,
                          const std::string& tail) {
  std::string sql = "select * from Syn [rows 64] where ";
  for (int i = 0; i < n; ++i) sql += prefix;
  return sql + tail;
}

TEST(SqlSurfaceDeathTest, DeepNestingIsStatusNotAbort) {
  // Each must come back as a Status: a compiled expression deeper than
  // CompiledExpr::kMaxStack aborts in Compile, and unbounded nesting
  // overflows the recursive-descent parser's stack.
  const std::string statements[] = {
      NestedSumStatement(64),
      RepeatedWhere("(", 10000, "a1 > 1" + std::string(10000, ')')),
      RepeatedWhere("- ", 100000, "a1 > 1"),
      RepeatedWhere("not ", 100000, "a1 > 1"),
      RepeatedWhere("a1 + ", 100000, "a1 > 1"),
  };
  for (const std::string& sql : statements) {
    EXPECT_EXIT(ParseAndExit(sql), ::testing::ExitedWithCode(0), "")
        << sql.substr(0, 80);
  }
}

TEST(SqlSurface, ExpressionDepthErrors) {
  const auto catalog = MakeCatalog();
  EXPECT_TRUE(sql::Parse(NestedSumStatement(63), catalog).ok());
  auto deep = sql::Parse(NestedSumStatement(64), catalog);
  ASSERT_FALSE(deep.ok());
  EXPECT_EQ(deep.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(deep.status().message().find("kMaxStack=64"), std::string::npos)
      << deep.status().message();

  const int bound = static_cast<int>(sql::kMaxExprNesting);
  EXPECT_TRUE(sql::Parse(RepeatedWhere("(", bound,
                                       "a1" + std::string(bound, ')') + " > 1"),
                         catalog)
                  .ok());
  auto nested = sql::Parse(RepeatedWhere("(", bound + 1, "a1"), catalog);
  ASSERT_FALSE(nested.ok());
  EXPECT_EQ(nested.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(nested.status().message().find("nests deeper than 256 levels at "
                                           "line 1, column"),
            std::string::npos)
      << nested.status().message();
}

TEST(SqlSurface, SessionWithoutAggregationMessage) {
  auto r = sql::Parse("select * from Syn [session gap 5]", MakeCatalog());
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("session windows are supported for "
                                      "aggregation queries only"),
            std::string::npos)
      << r.status().message();
}

TEST(SqlSurface, InvalidQueriesReturnStatus) {
  const auto catalog = MakeCatalog();
  const char* bad[] = {
      "",
      "select",
      "select * from",
      "select * from Nowhere [rows 64]",
      "select * from Syn",
      "select * from Syn [rows 64] [rows 64]",
      "select * from Syn [rows 0]",
      "select * from Syn [rows 64 slide 65]",
      "select nosuchcolumn from Syn [rows 64]",
      "select sum(a1) as s from Syn [range unbounded]",
      "select a1 from Syn [rows 64] group by a3",
      "select * from Syn [rows 64] where",
      "select * from Syn [rows 64] having a1 > 1",
      "select * from Syn [rows 64] trailing garbage",
  };
  for (const char* sql : bad) {
    auto r = sql::Parse(sql, catalog);
    EXPECT_FALSE(r.ok()) << "accepted: " << sql;
  }
}

}  // namespace
}  // namespace saber
