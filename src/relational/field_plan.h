#pragma once

#include <vector>

#include "relational/expression_compiler.h"

/// \file field_plan.h
/// Output-row construction plans of the batch operators (§5.4's populated
/// code-template pieces), which the CPU workers and the simulated GPGPU
/// both run. Per output field the plan is either a raw column copy (source
/// and destination types match — exact bytes, covers the timestamp
/// passthrough), the join's max-timestamp stamp, or a compiled program
/// routed through the int64 lane (integral destinations, exact beyond 2^53)
/// or the double lane (floating destinations). The stateless and join
/// operators evaluate each plan's program as a column and scatter it into
/// the output rows (cpu_operators.cc).

namespace saber {

struct FieldPlan {
  enum class Kind : uint8_t { kCopy, kMaxTs, kInt, kDouble } kind;
  uint8_t side = 0;         // source tuple for kCopy
  uint16_t src_offset = 0;  // byte offset in the source tuple
  uint16_t dst_offset = 0;  // byte offset in the output row
  uint8_t width = 0;        // bytes to copy for kCopy
  DataType dst_type = DataType::kInt64;
  CompiledExpr prog;        // set for kInt / kDouble
};

inline std::vector<FieldPlan> BuildFieldPlans(const std::vector<ExprPtr>& exprs,
                                              const Schema& out,
                                              const Schema& left,
                                              const Schema* right,
                                              bool field0_is_max_ts) {
  std::vector<FieldPlan> plans;
  for (size_t f = 0; f < exprs.size(); ++f) {
    FieldPlan p;
    p.dst_offset = static_cast<uint16_t>(out.field(f).offset);
    p.dst_type = out.field(f).type;
    if (f == 0 && field0_is_max_ts) {
      p.kind = FieldPlan::Kind::kMaxTs;
      plans.push_back(std::move(p));
      continue;
    }
    const Expression& e = *exprs[f];
    if (e.kind() == Expression::Kind::kColumn) {
      const auto& col = static_cast<const ColumnExpr&>(e);
      const Schema& src = col.side() == Side::kLeft ? left : *right;
      if (src.field(col.field()).type == p.dst_type) {
        p.kind = FieldPlan::Kind::kCopy;
        p.side = static_cast<uint8_t>(col.side());
        p.src_offset = static_cast<uint16_t>(src.field(col.field()).offset);
        p.width = static_cast<uint8_t>(TypeSize(p.dst_type));
        plans.push_back(std::move(p));
        continue;
      }
    }
    p.kind = IsIntegral(p.dst_type) ? FieldPlan::Kind::kInt
                                    : FieldPlan::Kind::kDouble;
    p.prog = CompiledExpr::Compile(e, left, right);
    plans.push_back(std::move(p));
  }
  return plans;
}

}  // namespace saber
