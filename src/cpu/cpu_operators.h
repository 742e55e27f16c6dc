#pragma once

#include <memory>

#include "core/operator.h"

/// \file cpu_operators.h
/// The batch operator functions (§5.3). On the CPU one query task is
/// processed by one worker thread; parallelism comes from running many
/// tasks concurrently (the paper's data-parallel execution), so the
/// per-task code is single-threaded. The simulated GPGPU runs the same
/// operators, one call per work group (gpu_operators.h).
///
/// Every relational operator runs batch-at-a-time: each expression it needs
/// (where, projection, aggregate inputs, group keys, join predicate and
/// projection) is compiled once at construction into a CompiledExpr program
/// (§5.4's query-specific functions) and evaluated over pane runs.
/// Predicates produce selection vectors; projections, aggregate inputs and
/// group keys produce typed columns (see docs/architecture.md, "Vectorized
/// CPU operator path"). QueryDef::ValidateLimits rejects expressions too
/// deep for the compiled stack machine at admission, so construction cannot
/// fail. UDF queries run the user's window function instead
/// (udf_operator.h).

namespace saber {

/// Creates the CPU operator for a query: stateless scan (σ/π), pane-partial
/// aggregation (α with GROUP-BY/HAVING), streaming θ-join, or the UDF
/// window operator.
std::unique_ptr<Operator> MakeCpuOperator(const QueryDef* query);

}  // namespace saber
