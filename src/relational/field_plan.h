#pragma once

#include <cstring>
#include <vector>

#include "relational/expression_compiler.h"

/// \file field_plan.h
/// Output-row construction plans shared by the CPU and GPGPU operator back
/// ends (§5.4's populated code-template pieces). Per output field the plan
/// is either a raw column copy (source and destination types match — exact
/// bytes, covers the timestamp passthrough), the join's max-timestamp stamp,
/// or a compiled program routed through the int64 lane (integral
/// destinations, exact beyond 2^53) or the double lane (floating
/// destinations). Both back ends build plans with BuildFieldPlans, so the
/// copy-vs-compile decision and the typed conversion rules cannot drift
/// between processors — which §5.4's cross-processor bit-compatibility
/// requires. The GPGPU kernels consume plans row-wise (WriteRowFromPlans);
/// the CPU operators evaluate each plan's program as a column and scatter
/// (cpu_operators.cc).

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

/// Row-wise plan application (the GPGPU work-item form). Conversions match
/// TupleWriter: integral destinations evaluate through EvalInt64 (exact for
/// the full int64 range), floating ones through EvalDouble.
inline void WriteRowFromPlans(const std::vector<FieldPlan>& plans,
                              const uint8_t* l, const uint8_t* r, uint8_t* row,
                              size_t row_size) {
  std::memset(row, 0, row_size);  // deterministic padding, like TupleWriter
  for (const FieldPlan& p : plans) {
    switch (p.kind) {
      case FieldPlan::Kind::kCopy:
        std::memcpy(row + p.dst_offset, (p.side ? r : l) + p.src_offset,
                    p.width);
        break;
      case FieldPlan::Kind::kMaxTs: {
        int64_t tl, tr;
        std::memcpy(&tl, l, sizeof(tl));
        std::memcpy(&tr, r, sizeof(tr));
        const int64_t ts = tl > tr ? tl : tr;
        std::memcpy(row + p.dst_offset, &ts, sizeof(ts));
        break;
      }
      case FieldPlan::Kind::kInt: {
        const int64_t v = p.prog.EvalInt64(l, r);
        if (p.dst_type == DataType::kInt32) {
          const int32_t x = static_cast<int32_t>(v);
          std::memcpy(row + p.dst_offset, &x, sizeof(x));
        } else {
          std::memcpy(row + p.dst_offset, &v, sizeof(v));
        }
        break;
      }
      case FieldPlan::Kind::kDouble: {
        const double v = p.prog.EvalDouble(l, r);
        if (p.dst_type == DataType::kFloat) {
          const float x = static_cast<float>(v);
          std::memcpy(row + p.dst_offset, &x, sizeof(x));
        } else {
          std::memcpy(row + p.dst_offset, &v, sizeof(v));
        }
        break;
      }
    }
  }
}

}  // namespace saber
