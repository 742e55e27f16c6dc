#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/window_udf.h"
#include "relational/aggregate.h"
#include "relational/expression.h"
#include "relational/expression_compiler.h"
#include "relational/schema.h"
#include "runtime/status.h"
#include "runtime/strcat.h"
#include "window/window_definition.h"

/// \file query.h
/// The logical definition of a window-based streaming query (§2.4): per-input
/// window functions ω, a (possibly compound) operator function f, and the
/// relation-to-stream function φ. SABER compiles a streaming SQL query into
/// an operator graph; here the graph of relational operators that share a
/// pass (σ, π, α with GROUP-BY/HAVING, or ⋈) is fused into one QueryDef, and
/// larger graphs (e.g. SG3 = join over the outputs of SG1/SG2) are built by
/// chaining queries through streams (Engine::Connect).
///
/// Each input stream expects ONE logical producer with non-decreasing
/// timestamps (validated at the Engine::InsertInto boundary). Workloads
/// with many client threads per stream front the query with the sharded
/// ingestion stage (ingest::ShardedIngress, src/ingest/), whose watermark
/// merger re-establishes that contract from N independent shards.

namespace saber {

/// Engine-wide operator limits. The CPU and GPGPU batch operator functions
/// keep per-pane aggregate state and packed group keys in fixed-size stack
/// buffers sized by these constants, so the limits are validated once at
/// query-build time (QueryBuilder::TryBuild / Engine::AddQuery) and misuse
/// fails there with a clear Status instead of aborting mid-task on a worker
/// thread.
inline constexpr size_t kMaxAggregatesPerQuery = 16;
/// Packed group-key width bound: keys serialize as 8 bytes per GROUP-BY
/// expression, 8-aligned (PaneFormat), so this allows up to 8 key columns.
inline constexpr size_t kMaxGroupKeyBytes = 64;

enum class StreamFunction : uint8_t {
  kRStream,  // concatenate window results (default for α and ⋈, §2.4)
  kIStream,  // only newly arrived tuples (default for π and σ, §2.4)
};

/// Lifecycle of a registered query inside a (possibly running) engine.
/// Transitions are strictly forward:
///
///   kAdmitted ──Start()──► kRunning ──RemoveQuery()──► kDraining ─► kRetired
///        └──────────(AddQuery on a running engine admits straight to Running)
///
/// kAdmitted: registered before Engine::Start(); inserts are staged.
/// kRunning:  inserts accepted, tasks dispatched and scheduled.
/// kDraining: inserts rejected (counted in tuples_dropped); staged ingest,
///            in-flight tasks and the result-stage assembly line drain.
/// kRetired:  buffers freed, slot recycled; the handle stays valid for stats.
enum class QueryLifecycle : uint8_t { kAdmitted, kRunning, kDraining, kRetired };

inline const char* QueryLifecycleName(QueryLifecycle s) {
  switch (s) {
    case QueryLifecycle::kAdmitted: return "Admitted";
    case QueryLifecycle::kRunning: return "Running";
    case QueryLifecycle::kDraining: return "Draining";
    case QueryLifecycle::kRetired: return "Retired";
  }
  return "?";
}

/// How the assembly stage computes sliding-window aggregates from pane
/// partials (§5.3). kAuto uses two-stacks (two_stacks.h, [50]) for ungrouped
/// aggregates and re-merges each window's panes for grouped ones.
/// kRemergeOnly forces the naive merge-all-panes-per-window path (ablation
/// baseline).
enum class AssemblyMode : uint8_t { kAuto, kRemergeOnly };

/// Fully-resolved query definition. Instances are immutable once built and
/// shared by all query tasks; construction goes through QueryBuilder.
struct QueryDef {
  std::string name;
  int num_inputs = 1;
  Schema input_schema[2];
  WindowDefinition window[2];
  StreamFunction stream_fn = StreamFunction::kIStream;

  /// Optional selection predicate, applied per input tuple (single-input
  /// queries only; join filters go into join_predicate).
  ExprPtr where;

  /// Projection list (empty if the query aggregates). Expression i produces
  /// output field i. Field 0 must be the timestamp passthrough.
  std::vector<ExprPtr> select;

  /// Aggregation (empty if the query projects).
  std::vector<AggregateSpec> aggregates;
  std::vector<ExprPtr> group_by;  // integral key expressions
  ExprPtr having;                 // evaluated over the *output* row

  AssemblyMode assembly_mode = AssemblyMode::kAuto;

  /// Weighted-fair scheduling share. The HLS scheduler charges each query's
  /// virtual service as bytes/weight, so a weight-8 query receives ~8x the
  /// execution bytes of a weight-1 query under contention. Must be > 0.
  double weight = 1.0;

  /// θ-join predicate over a (left, right) tuple pair; set iff num_inputs==2.
  ExprPtr join_predicate;
  /// Join projection: expressions over (left, right); field 0 = timestamp.
  std::vector<ExprPtr> join_select;

  /// User-defined window operator function (§2.4); mutually exclusive with
  /// select/aggregates/join_predicate. Shared because QueryDef is copyable.
  std::shared_ptr<const WindowUdf> udf;

  Schema output_schema;

  bool is_aggregation() const { return !aggregates.empty(); }
  bool is_udf() const { return udf != nullptr; }
  bool is_join() const { return num_inputs == 2 && !is_udf(); }
  bool is_stateless() const {
    return !is_aggregation() && !is_join() && !is_udf();
  }
  bool grouped() const { return !group_by.empty(); }

  /// Serialized width of one group key (8 bytes per key expression).
  size_t group_key_size() const { return group_by.size() * 8; }

  /// Checks the fixed operator limits (kMaxAggregatesPerQuery,
  /// kMaxGroupKeyBytes, CompiledExpr::kMaxStack). QueryBuilder::TryBuild
  /// surfaces the Status; Engine::AddQuery re-checks for hand-built
  /// QueryDefs.
  Status ValidateLimits() const {
    if (aggregates.size() > kMaxAggregatesPerQuery) {
      return Status::InvalidArgument(StrCat(
          "query '", name, "' has ", aggregates.size(),
          " aggregate columns; the operator limit is kMaxAggregatesPerQuery=",
          kMaxAggregatesPerQuery));
    }
    if (group_key_size() > kMaxGroupKeyBytes) {  // always 8 bytes per key
      return Status::InvalidArgument(StrCat(
          "query '", name, "' has ", group_by.size(),
          " GROUP-BY keys (packed key ", group_key_size(),
          " bytes); the operator limit is kMaxGroupKeyBytes=",
          kMaxGroupKeyBytes, " (8 bytes per key)"));
    }
    if (!(weight > 0.0)) {  // also rejects NaN
      return Status::InvalidArgument(StrCat(
          "query '", name, "' has scheduling weight ", weight,
          "; weights must be > 0"));
    }
    for (int i = 0; i < num_inputs; ++i) {
      if (!window[i].session()) continue;
      // Sessions are data-driven (no aligned pane grid), so only the
      // aggregation path — whose assembly merges adjacent segment partials
      // by gap — implements them. Projection/UDF/join would need per-path
      // session state that does not exist.
      if (!is_aggregation()) {
        return Status::InvalidArgument(StrCat(
            "query '", name, "' uses a session window on input ", i,
            "; session windows are supported for aggregation queries only"));
      }
      if (window[i].unbounded) {
        return Status::InvalidArgument(StrCat(
            "query '", name, "' combines session and unbounded on input ", i));
      }
    }
    return ValidateExpressionDepth();
  }

 private:
  /// Every expression an operator compiles must fit the stack machine
  /// (CompiledExpr::kMaxStack). Compile aborts beyond it, and admission
  /// builds the operators, so a deep expression must fail here instead.
  Status ValidateExpressionDepth() const {
    const Schema* right = num_inputs == 2 ? &input_schema[1] : nullptr;
    auto check = [&](const ExprPtr& e, const char* role) -> Status {
      if (e == nullptr) return Status::OK();
      const size_t depth = CompiledExpr::StackDepth(*e, input_schema[0], right);
      if (depth <= CompiledExpr::kMaxStack) return Status::OK();
      return Status::InvalidArgument(StrCat(
          "query '", name, "': ", role, " expression needs ", depth,
          " stack slots; the compiled-expression limit is "
          "CompiledExpr::kMaxStack=",
          CompiledExpr::kMaxStack));
    };
    SABER_RETURN_NOT_OK(check(where, "WHERE"));
    for (const ExprPtr& e : select) SABER_RETURN_NOT_OK(check(e, "SELECT"));
    for (const AggregateSpec& a : aggregates) {
      SABER_RETURN_NOT_OK(check(a.input, "aggregate input"));
    }
    for (const ExprPtr& e : group_by) SABER_RETURN_NOT_OK(check(e, "GROUP BY"));
    SABER_RETURN_NOT_OK(check(join_predicate, "join predicate"));
    for (const ExprPtr& e : join_select) {
      SABER_RETURN_NOT_OK(check(e, "join projection"));
    }
    return Status::OK();
  }
};

/// Fluent builder for QueryDef. Example (CM1, Appendix A.1):
///
///   QueryDef q = QueryBuilder("CM1", schema)
///       .Window(WindowDefinition::Time(60, 1))
///       .GroupBy({Col(schema, "category")})
///       .Aggregate(AggregateFunction::kSum, Col(schema, "cpu"), "totalCpu")
///       .Build();
class QueryBuilder {
 public:
  QueryBuilder(std::string name, Schema input) : def_() {
    def_.name = std::move(name);
    def_.num_inputs = 1;
    def_.input_schema[0] = std::move(input);
    def_.window[0] = WindowDefinition::Count(1, 1);
  }

  /// Two-input (join) query.
  QueryBuilder(std::string name, Schema left, Schema right) : def_() {
    def_.name = std::move(name);
    def_.num_inputs = 2;
    def_.input_schema[0] = std::move(left);
    def_.input_schema[1] = std::move(right);
    def_.window[0] = WindowDefinition::Count(1, 1);
    def_.window[1] = WindowDefinition::Count(1, 1);
  }

  QueryBuilder& Window(WindowDefinition w) {
    def_.window[0] = w;
    if (def_.num_inputs == 2) def_.window[1] = w;
    return *this;
  }
  QueryBuilder& WindowRight(WindowDefinition w) {
    def_.window[1] = w;
    return *this;
  }

  QueryBuilder& Where(ExprPtr predicate) {
    def_.where = std::move(predicate);
    return *this;
  }

  /// Adds a projected output column. Name defaults to the expression text.
  QueryBuilder& Select(ExprPtr expr, std::string name = "") {
    if (name.empty()) name = StrCat("col", def_.select.size());
    def_.select.push_back(std::move(expr));
    select_names_.push_back(std::move(name));
    return *this;
  }

  QueryBuilder& GroupBy(std::vector<ExprPtr> keys,
                        std::vector<std::string> names = {}) {
    def_.group_by = std::move(keys);
    group_names_ = std::move(names);
    return *this;
  }

  QueryBuilder& Aggregate(AggregateFunction fn, ExprPtr input,
                          std::string name = "") {
    if (name.empty()) {
      name = std::string(AggregateName(fn)) + std::to_string(def_.aggregates.size());
    }
    def_.aggregates.push_back(AggregateSpec{fn, std::move(input), std::move(name)});
    return *this;
  }

  QueryBuilder& Having(ExprPtr predicate) {
    def_.having = std::move(predicate);
    return *this;
  }

  QueryBuilder& Assembly(AssemblyMode mode) {
    def_.assembly_mode = mode;
    return *this;
  }

  /// Sets the weighted-fair scheduling share (default 1.0, must be > 0).
  QueryBuilder& Weight(double weight) {
    def_.weight = weight;
    return *this;
  }

  /// Installs a user-defined window operator function (§2.4). Mutually
  /// exclusive with Select/Aggregate/JoinOn; WHERE is not applied (filter
  /// inside the UDF instead).
  QueryBuilder& Udf(std::shared_ptr<const WindowUdf> udf) {
    def_.udf = std::move(udf);
    return *this;
  }

  QueryBuilder& JoinOn(ExprPtr predicate) {
    def_.join_predicate = std::move(predicate);
    return *this;
  }

  /// Adds a join output column (expressions may reference both sides).
  QueryBuilder& JoinSelect(ExprPtr expr, std::string name = "") {
    if (name.empty()) name = StrCat("col", def_.join_select.size());
    def_.join_select.push_back(std::move(expr));
    join_names_.push_back(std::move(name));
    return *this;
  }

  /// Builds the QueryDef, returning a Status instead of aborting when a
  /// fixed operator limit (kMaxAggregatesPerQuery, kMaxGroupKeyBytes) is
  /// exceeded. Structural invariants (missing timestamp, join without a
  /// predicate, ...) remain programmer errors and still SABER_CHECK.
  Result<QueryDef> TryBuild() {
    FinalizeOutputSchema();
    Validate();
    Status limits = def_.ValidateLimits();
    if (!limits.ok()) return limits;
    return std::move(def_);
  }

  /// Abort-on-error variant of TryBuild (the common fluent-call tail).
  QueryDef Build() { return std::move(TryBuild()).value(); }

 private:
  void FinalizeOutputSchema() {
    Schema out;
    if (def_.is_udf()) {
      def_.output_schema =
          def_.udf->DeriveOutputSchema(def_.input_schema, def_.num_inputs);
      def_.stream_fn = StreamFunction::kRStream;
      return;
    }
    if (def_.is_join()) {
      if (def_.join_select.empty()) {
        // Default: timestamp + all left fields + all right non-ts fields.
        def_.join_select.push_back(MaxTsExpr());
        join_names_.insert(join_names_.begin(), "timestamp");
        AppendAllColumns(def_.input_schema[0], Side::kLeft, "l_");
        AppendAllColumns(def_.input_schema[1], Side::kRight, "r_");
      }
      for (size_t i = 0; i < def_.join_select.size(); ++i) {
        out.AddField(join_names_[i], def_.join_select[i]->output_type());
      }
    } else if (def_.is_aggregation()) {
      out.AddField("timestamp", DataType::kInt64);
      for (size_t i = 0; i < def_.group_by.size(); ++i) {
        const std::string n =
            i < group_names_.size() ? group_names_[i] : StrCat("key", i);
        out.AddField(n, DataType::kInt64);
      }
      for (const auto& a : def_.aggregates) out.AddField(a.name, DataType::kDouble);
    } else {
      if (def_.select.empty()) {
        // Identity projection.
        for (size_t i = 0; i < def_.input_schema[0].num_fields(); ++i) {
          def_.select.push_back(ColAt(def_.input_schema[0], i));
          select_names_.push_back(def_.input_schema[0].field(i).name);
        }
      }
      for (size_t i = 0; i < def_.select.size(); ++i) {
        out.AddField(select_names_[i], def_.select[i]->output_type());
      }
    }
    def_.output_schema = std::move(out);
    def_.stream_fn = (def_.is_aggregation() || def_.is_join())
                         ? StreamFunction::kRStream
                         : StreamFunction::kIStream;
  }

  void Validate() {
    SABER_CHECK(!(def_.is_aggregation() && !def_.select.empty()));
    SABER_CHECK(def_.input_schema[0].has_timestamp());
    if (def_.is_udf()) {
      SABER_CHECK(def_.select.empty() && def_.aggregates.empty() &&
                  def_.join_predicate == nullptr && def_.where == nullptr);
      SABER_CHECK(def_.output_schema.has_timestamp());
      if (def_.num_inputs == 2) SABER_CHECK(def_.input_schema[1].has_timestamp());
      SABER_CHECK(!def_.window[0].unbounded);
      return;
    }
    if (def_.is_join()) {
      SABER_CHECK(def_.join_predicate != nullptr);
      SABER_CHECK(def_.input_schema[1].has_timestamp());
    }
    if (def_.is_stateless()) {
      // Field 0 of the output must be the timestamp for downstream chaining.
      SABER_CHECK(def_.output_schema.num_fields() > 0);
    }
  }

  ExprPtr MaxTsExpr() {
    // max(L.ts, R.ts) is not directly expressible; the join operator treats
    // output field 0 specially and stamps max(ts_l, ts_r). A left-ts column
    // expression is kept as a placeholder for the schema type.
    return ColAt(def_.input_schema[0], 0, Side::kLeft);
  }

  void AppendAllColumns(const Schema& s, Side side, const std::string& prefix) {
    for (size_t i = 1; i < s.num_fields(); ++i) {
      def_.join_select.push_back(ColAt(s, i, side));
      join_names_.push_back(prefix + s.field(i).name);
    }
  }

  QueryDef def_;
  std::vector<std::string> select_names_;
  std::vector<std::string> group_names_;
  std::vector<std::string> join_names_;
};

}  // namespace saber
