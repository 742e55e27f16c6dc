#pragma once

#include <map>
#include <string>

#include "core/query.h"
#include "ingest/ingress_options.h"
#include "sql/lexer.h"

/// \file parser.h
/// Parser for the CQL-style streaming SQL subset of §2.4 / Appendix A,
/// producing the same QueryDef the fluent QueryBuilder produces. Supported
/// grammar (keywords case-insensitive):
///
///   query      := SELECT select_list
///                 FROM source (',' source)?
///                 (WHERE expr)? (GROUP BY expr_list)? (HAVING expr)?
///                 (WITH with_opt (',' with_opt)*)?
///   source     := stream_name window (AS? alias)?
///   window     := '[' RANGE (UNBOUNDED | n (SLIDE m)?) ']'        -- time
///               | '[' ROWS n (SLIDE m)? ']'                       -- count
///               | '[' SESSION GAP n ']'                           -- session
///   with_opt   := LATENESS n                 -- event-time disorder bound
///               | LATE (ABORT | DROP | DEADLETTER)   -- late-tuple policy
///   select_list:= sel (',' sel)* ; sel := expr (AS ident)?
///   expr       := disjunctions/conjunctions of comparisons over
///                 +,-,*,/,% arithmetic; aggregates SUM/AVG/COUNT/MIN/MAX;
///                 columns `name` or `alias.name`; NOT; parentheses.
///
/// Mapping rules (mirroring the engine's execution model):
///  - single-source queries with aggregates become aggregation queries
///    (non-aggregate select items must be GROUP BY keys or `timestamp`);
///  - two-source queries are θ-joins: the WHERE clause becomes the join
///    predicate; GROUP BY/HAVING on joins must be expressed as a chained
///    query (Engine::Connect), as SG3/LRB4 do;
///  - `select *` is the identity projection.

namespace saber::sql {

/// Expression nesting bound. Each parenthesis, aggregate call, unary minus
/// and NOT is one level, and so is each operator of a +,-,*,/,% chain
/// (chains build left-deep trees). The parser, the compiler, the evaluator
/// and the tree's destructor all recurse once per level, so without a bound
/// a statement of a few kilobytes overflows the stack of the thread that
/// parses it. The bound is a fixed 4 x CompiledExpr::kMaxStack.
inline constexpr size_t kMaxExprNesting = 4 * CompiledExpr::kMaxStack;

/// Stream catalog: name -> schema (field 0 must be the timestamp).
using Catalog = std::map<std::string, Schema>;

/// Ingestion directives from the statement's WITH clause. The parser only
/// records them — whoever admits the query (the network front end, a CLI)
/// applies them to the ingress it builds.
struct IngressSpec {
  int64_t allowed_lateness = 0;
  ingest::LatePolicy late_policy = ingest::LatePolicy::kAbort;
};

struct ParsedStatement {
  QueryDef def;
  IngressSpec ingress;
};

/// Parses one streaming SQL statement against the catalog.
Result<QueryDef> Parse(const std::string& statement, const Catalog& catalog,
                       const std::string& query_name = "sql");

/// Like Parse, but also returns the WITH-clause ingestion directives.
Result<ParsedStatement> ParseStatement(const std::string& statement,
                                       const Catalog& catalog,
                                       const std::string& query_name = "sql");

}  // namespace saber::sql
