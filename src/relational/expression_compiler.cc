#include "relational/expression_compiler.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace saber {

namespace {

using Op = CompiledExpr::Op;
using Instr = CompiledExpr::Instr;

uint16_t ColumnOffset(const ColumnExpr& col, const Schema& ls, const Schema* rs) {
  const Schema& s = col.side() == Side::kLeft ? ls : *rs;
  return static_cast<uint16_t>(s.field(col.field()).offset);
}

Op ColumnOp(DataType t) {
  switch (t) {
    case DataType::kInt32: return Op::kPushColInt32;
    case DataType::kInt64: return Op::kPushColInt64;
    case DataType::kFloat: return Op::kPushColFloat;
    case DataType::kDouble: return Op::kPushColDouble;
  }
  return Op::kPushColInt32;
}

Op ArithCode(ArithOp op, bool int_lane) {
  switch (op) {
    case ArithOp::kAdd: return int_lane ? Op::kAddI64 : Op::kAddF64;
    case ArithOp::kSub: return int_lane ? Op::kSubI64 : Op::kSubF64;
    case ArithOp::kMul: return int_lane ? Op::kMulI64 : Op::kMulF64;
    case ArithOp::kDiv: return Op::kDivF64;  // never integral (ArithExpr)
    case ArithOp::kMod: return int_lane ? Op::kModI64 : Op::kModF64;
  }
  return Op::kAddF64;
}

Op CompareCode(CompareOp op, bool int_lane) {
  switch (op) {
    case CompareOp::kLt: return int_lane ? Op::kLtI64 : Op::kLtF64;
    case CompareOp::kLe: return int_lane ? Op::kLeI64 : Op::kLeF64;
    case CompareOp::kEq: return int_lane ? Op::kEqI64 : Op::kEqF64;
    case CompareOp::kNe: return int_lane ? Op::kNeI64 : Op::kNeF64;
    case CompareOp::kGe: return int_lane ? Op::kGeI64 : Op::kGeF64;
    case CompareOp::kGt: return int_lane ? Op::kGtI64 : Op::kGtF64;
  }
  return Op::kEqF64;
}

/// One stack value; the live member is decided statically per slot and
/// instruction by the compiler (union-based type punning, fine on GCC/Clang).
union LaneVal {
  double d;
  int64_t i;
};

/// kModF64 mirrors ArithExpr::EvalDouble's non-integral modulo: truncate
/// both operands to int64, modulo, widen back.
inline double DoubleMod(double a, double b) {
  const int64_t bi = static_cast<int64_t>(b);
  return bi == 0 ? 0.0
                 : static_cast<double>(static_cast<int64_t>(a) % bi);
}

// ---------------------------------------------------------------------------
// Batch interpreter. One pass over the program; every instruction loops over
// the whole run, so virtual-dispatch/decode cost is paid once per ~1024
// tuples instead of once per tuple. `At` maps (side, row) -> tuple pointer
// and is inlined per instantiation (dense / gather / pair addressing).
// ---------------------------------------------------------------------------

template <typename At>
inline void RunBatch(const std::vector<Instr>& program, const At& at, size_t n,
                     LaneVal* lanes) {
  constexpr size_t kB = CompiledExpr::kBatchSize;
  int sp = -1;
  for (const Instr& ins : program) {
    switch (ins.op) {
      case Op::kPushColInt32: {
        LaneVal* dst = lanes + ++sp * kB;
        for (size_t i = 0; i < n; ++i) {
          int32_t v;
          std::memcpy(&v, at(ins.side, i) + ins.offset, sizeof(v));
          dst[i].i = v;
        }
        break;
      }
      case Op::kPushColInt64: {
        LaneVal* dst = lanes + ++sp * kB;
        for (size_t i = 0; i < n; ++i) {
          int64_t v;
          std::memcpy(&v, at(ins.side, i) + ins.offset, sizeof(v));
          dst[i].i = v;
        }
        break;
      }
      case Op::kPushColFloat: {
        LaneVal* dst = lanes + ++sp * kB;
        for (size_t i = 0; i < n; ++i) {
          float v;
          std::memcpy(&v, at(ins.side, i) + ins.offset, sizeof(v));
          dst[i].d = static_cast<double>(v);
        }
        break;
      }
      case Op::kPushColDouble: {
        LaneVal* dst = lanes + ++sp * kB;
        for (size_t i = 0; i < n; ++i) {
          double v;
          std::memcpy(&v, at(ins.side, i) + ins.offset, sizeof(v));
          dst[i].d = v;
        }
        break;
      }
      case Op::kPushConstF64: {
        LaneVal* dst = lanes + ++sp * kB;
        for (size_t i = 0; i < n; ++i) dst[i].d = ins.constant;
        break;
      }
      case Op::kPushConstI64: {
        LaneVal* dst = lanes + ++sp * kB;
        for (size_t i = 0; i < n; ++i) dst[i].i = ins.iconst;
        break;
      }
      case Op::kCastF64: {
        LaneVal* t = lanes + sp * kB;
        for (size_t i = 0; i < n; ++i) t[i].d = static_cast<double>(t[i].i);
        break;
      }
      case Op::kTestF64: {
        LaneVal* t = lanes + sp * kB;
        for (size_t i = 0; i < n; ++i) t[i].i = t[i].d != 0.0 ? 1 : 0;
        break;
      }
#define SABER_BATCH_BINOP(OPCODE, EXPR_D, EXPR_I)                      \
  case OPCODE: {                                                       \
    LaneVal* a = lanes + (sp - 1) * kB;                                \
    LaneVal* b = lanes + sp * kB;                                      \
    (void)b;                                                           \
    for (size_t i = 0; i < n; ++i) {                                   \
      EXPR_D;                                                          \
      EXPR_I;                                                          \
    }                                                                  \
    --sp;                                                              \
    break;                                                             \
  }
      SABER_BATCH_BINOP(Op::kAddF64, a[i].d += b[i].d, (void)0)
      SABER_BATCH_BINOP(Op::kSubF64, a[i].d -= b[i].d, (void)0)
      SABER_BATCH_BINOP(Op::kMulF64, a[i].d *= b[i].d, (void)0)
      SABER_BATCH_BINOP(Op::kDivF64,
                        a[i].d = b[i].d == 0.0 ? 0.0 : a[i].d / b[i].d,
                        (void)0)
      SABER_BATCH_BINOP(Op::kModF64, a[i].d = DoubleMod(a[i].d, b[i].d),
                        (void)0)
      SABER_BATCH_BINOP(Op::kAddI64, (void)0, a[i].i += b[i].i)
      SABER_BATCH_BINOP(Op::kSubI64, (void)0, a[i].i -= b[i].i)
      SABER_BATCH_BINOP(Op::kMulI64, (void)0, a[i].i *= b[i].i)
      SABER_BATCH_BINOP(Op::kModI64, (void)0,
                        a[i].i = b[i].i == 0 ? 0 : a[i].i % b[i].i)
      SABER_BATCH_BINOP(Op::kLtF64, (void)0,
                        a[i].i = a[i].d < b[i].d ? 1 : 0)
      SABER_BATCH_BINOP(Op::kLeF64, (void)0,
                        a[i].i = a[i].d <= b[i].d ? 1 : 0)
      SABER_BATCH_BINOP(Op::kEqF64, (void)0,
                        a[i].i = a[i].d == b[i].d ? 1 : 0)
      SABER_BATCH_BINOP(Op::kNeF64, (void)0,
                        a[i].i = a[i].d != b[i].d ? 1 : 0)
      SABER_BATCH_BINOP(Op::kGeF64, (void)0,
                        a[i].i = a[i].d >= b[i].d ? 1 : 0)
      SABER_BATCH_BINOP(Op::kGtF64, (void)0,
                        a[i].i = a[i].d > b[i].d ? 1 : 0)
      SABER_BATCH_BINOP(Op::kLtI64, (void)0,
                        a[i].i = a[i].i < b[i].i ? 1 : 0)
      SABER_BATCH_BINOP(Op::kLeI64, (void)0,
                        a[i].i = a[i].i <= b[i].i ? 1 : 0)
      SABER_BATCH_BINOP(Op::kEqI64, (void)0,
                        a[i].i = a[i].i == b[i].i ? 1 : 0)
      SABER_BATCH_BINOP(Op::kNeI64, (void)0,
                        a[i].i = a[i].i != b[i].i ? 1 : 0)
      SABER_BATCH_BINOP(Op::kGeI64, (void)0,
                        a[i].i = a[i].i >= b[i].i ? 1 : 0)
      SABER_BATCH_BINOP(Op::kGtI64, (void)0,
                        a[i].i = a[i].i > b[i].i ? 1 : 0)
      SABER_BATCH_BINOP(Op::kAnd, (void)0,
                        a[i].i = (a[i].i != 0) & (b[i].i != 0) ? 1 : 0)
      SABER_BATCH_BINOP(Op::kOr, (void)0,
                        a[i].i = (a[i].i != 0) | (b[i].i != 0) ? 1 : 0)
#undef SABER_BATCH_BINOP
      case Op::kNot: {
        LaneVal* t = lanes + sp * kB;
        for (size_t i = 0; i < n; ++i) t[i].i = t[i].i == 0 ? 1 : 0;
        break;
      }
    }
  }
}

// Tuple addressing strategies for RunBatch.
struct DenseAccess {
  const uint8_t* base;
  size_t stride;
  const uint8_t* operator()(uint8_t, size_t i) const {
    return base + i * stride;
  }
};
struct GatherAccess {
  const uint8_t* base;
  size_t stride;
  const uint32_t* sel;
  const uint8_t* operator()(uint8_t, size_t i) const {
    return base + static_cast<size_t>(sel[i]) * stride;
  }
};
struct PairAccess {
  const uint8_t* const* left;
  const uint8_t* fixed_left;
  const uint8_t* const* right;
  const uint8_t* fixed_right;
  const uint8_t* operator()(uint8_t side, size_t i) const {
    if (side) return right != nullptr ? right[i] : fixed_right;
    return left != nullptr ? left[i] : fixed_left;
  }
};

/// Per-thread lane scratch: max_stack slots of kBatchSize values, grown to
/// the deepest program this thread has evaluated. Bounded by kMaxStack,
/// i.e. <= 512 KiB per thread.
LaneVal* BatchScratch(size_t slots) {
  thread_local std::vector<LaneVal> buf;
  const size_t need = slots * CompiledExpr::kBatchSize;
  if (buf.size() < need) buf.resize(need);
  return buf.data();
}

/// Stack high-water mark of a postfix program.
size_t ProgramStack(const std::vector<Instr>& program) {
  size_t depth = 0, max_depth = 0;
  for (const Instr& i : program) {
    switch (i.op) {
      case Op::kPushColInt32:
      case Op::kPushColInt64:
      case Op::kPushColFloat:
      case Op::kPushColDouble:
      case Op::kPushConstF64:
      case Op::kPushConstI64:
        ++depth;
        break;
      case Op::kCastF64:
      case Op::kTestF64:
      case Op::kNot:
        break;  // 1 in, 1 out
      default:
        --depth;  // 2 in, 1 out
        break;
    }
    max_depth = std::max(max_depth, depth);
  }
  return max_depth;
}

}  // namespace

CompiledExpr CompiledExpr::Compile(const Expression& expr, const Schema& ls,
                                   const Schema* rs) {
  CompiledExpr out;
  out.Emit(expr, ls, rs);
  out.result_integral_ = expr.integral();
  out.max_stack_ = ProgramStack(out.program_);
  SABER_CHECK(out.max_stack_ <= kMaxStack);  // ValidateLimits guards admission
  return out;
}

size_t CompiledExpr::StackDepth(const Expression& expr, const Schema& ls,
                                const Schema* rs) {
  CompiledExpr probe;
  probe.Emit(expr, ls, rs);
  return ProgramStack(probe.program_);
}

void CompiledExpr::EmitAsF64(const Expression& e, const Schema& ls,
                             const Schema* rs) {
  if (e.kind() == Expression::Kind::kLiteral && e.integral()) {
    // Constant-fold the widening: an integer literal in a double context
    // would otherwise cost a full kCastF64 batch loop per evaluation.
    const auto& lit = static_cast<const LiteralExpr&>(e);
    program_.push_back(Instr{Op::kPushConstF64, 0, 0, lit.dval(), 0});
    return;
  }
  Emit(e, ls, rs);
  if (e.integral()) program_.push_back(Instr{Op::kCastF64, 0, 0, 0.0, 0});
}

void CompiledExpr::EmitAsBool(const Expression& e, const Schema& ls,
                              const Schema* rs) {
  Emit(e, ls, rs);
  // Integral operands feed kAnd/kOr/kNot raw (truthiness is != 0); double
  // operands hop lanes through an explicit test, like Expression::EvalBool.
  if (!e.integral()) program_.push_back(Instr{Op::kTestF64, 0, 0, 0.0, 0});
}

void CompiledExpr::Emit(const Expression& e, const Schema& ls, const Schema* rs) {
  switch (e.kind()) {
    case Expression::Kind::kColumn: {
      const auto& col = static_cast<const ColumnExpr&>(e);
      program_.push_back(Instr{ColumnOp(col.output_type()),
                               static_cast<uint8_t>(col.side()),
                               ColumnOffset(col, ls, rs), 0.0, 0});
      break;
    }
    case Expression::Kind::kLiteral: {
      const auto& lit = static_cast<const LiteralExpr&>(e);
      if (lit.integral()) {
        program_.push_back(Instr{Op::kPushConstI64, 0, 0, 0.0, lit.ival()});
      } else {
        program_.push_back(Instr{Op::kPushConstF64, 0, 0, lit.dval(), 0});
      }
      break;
    }
    case Expression::Kind::kArith: {
      const auto& a = static_cast<const ArithExpr&>(e);
      const bool int_lane = e.integral();  // lhs && rhs integral, op != kDiv
      if (int_lane) {
        Emit(*a.lhs(), ls, rs);
        Emit(*a.rhs(), ls, rs);
      } else {
        EmitAsF64(*a.lhs(), ls, rs);
        EmitAsF64(*a.rhs(), ls, rs);
      }
      program_.push_back(Instr{ArithCode(a.op(), int_lane), 0, 0, 0.0, 0});
      break;
    }
    case Expression::Kind::kCompare: {
      const auto& c = static_cast<const CompareExpr&>(e);
      const bool int_lane = c.lhs()->integral() && c.rhs()->integral();
      if (int_lane) {
        Emit(*c.lhs(), ls, rs);
        Emit(*c.rhs(), ls, rs);
      } else {
        EmitAsF64(*c.lhs(), ls, rs);
        EmitAsF64(*c.rhs(), ls, rs);
      }
      program_.push_back(Instr{CompareCode(c.op(), int_lane), 0, 0, 0.0, 0});
      break;
    }
    case Expression::Kind::kLogical: {
      const auto& lg = static_cast<const LogicalExpr&>(e);
      if (lg.op() == LogicalOp::kNot) {
        EmitAsBool(*lg.operands()[0], ls, rs);
        program_.push_back(Instr{Op::kNot, 0, 0, 0.0, 0});
        break;
      }
      const Op op = lg.op() == LogicalOp::kAnd ? Op::kAnd : Op::kOr;
      EmitAsBool(*lg.operands()[0], ls, rs);
      for (size_t i = 1; i < lg.operands().size(); ++i) {
        EmitAsBool(*lg.operands()[i], ls, rs);
        program_.push_back(Instr{op, 0, 0, 0.0, 0});
      }
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// Batch entry points.
// ---------------------------------------------------------------------------

size_t CompiledExpr::EvalBatchBool(const uint8_t* base, size_t stride, size_t n,
                                   uint32_t* sel_out) const {
  SABER_CHECK(!program_.empty());
  LaneVal* lanes = BatchScratch(max_stack_);
  size_t cnt = 0;
  for (size_t pos = 0; pos < n; pos += kBatchSize) {
    const size_t m = std::min(kBatchSize, n - pos);
    RunBatch(program_, DenseAccess{base + pos * stride, stride}, m, lanes);
    if (result_integral_) {
      for (size_t i = 0; i < m; ++i) {
        if (lanes[i].i != 0) sel_out[cnt++] = static_cast<uint32_t>(pos + i);
      }
    } else {
      for (size_t i = 0; i < m; ++i) {
        if (lanes[i].d != 0.0) sel_out[cnt++] = static_cast<uint32_t>(pos + i);
      }
    }
  }
  return cnt;
}

void CompiledExpr::EvalBatchDouble(const uint8_t* base, size_t stride,
                                   const uint32_t* sel, size_t n,
                                   double* out) const {
  SABER_CHECK(!program_.empty());
  LaneVal* lanes = BatchScratch(max_stack_);
  for (size_t pos = 0; pos < n; pos += kBatchSize) {
    const size_t m = std::min(kBatchSize, n - pos);
    if (sel != nullptr) {
      RunBatch(program_, GatherAccess{base, stride, sel + pos}, m, lanes);
    } else {
      RunBatch(program_, DenseAccess{base + pos * stride, stride}, m, lanes);
    }
    if (result_integral_) {
      for (size_t i = 0; i < m; ++i) {
        out[pos + i] = static_cast<double>(lanes[i].i);
      }
    } else {
      for (size_t i = 0; i < m; ++i) out[pos + i] = lanes[i].d;
    }
  }
}

void CompiledExpr::EvalBatchInt64(const uint8_t* base, size_t stride,
                                  const uint32_t* sel, size_t n,
                                  int64_t* out) const {
  SABER_CHECK(!program_.empty());
  LaneVal* lanes = BatchScratch(max_stack_);
  for (size_t pos = 0; pos < n; pos += kBatchSize) {
    const size_t m = std::min(kBatchSize, n - pos);
    if (sel != nullptr) {
      RunBatch(program_, GatherAccess{base, stride, sel + pos}, m, lanes);
    } else {
      RunBatch(program_, DenseAccess{base + pos * stride, stride}, m, lanes);
    }
    if (result_integral_) {
      for (size_t i = 0; i < m; ++i) out[pos + i] = lanes[i].i;
    } else {
      for (size_t i = 0; i < m; ++i) {
        out[pos + i] = static_cast<int64_t>(lanes[i].d);
      }
    }
  }
}

size_t CompiledExpr::EvalBatchBoolPairs(const uint8_t* const* left,
                                        const uint8_t* fixed_left,
                                        const uint8_t* const* right,
                                        const uint8_t* fixed_right, size_t n,
                                        uint32_t* sel_out) const {
  SABER_CHECK(!program_.empty());
  LaneVal* lanes = BatchScratch(max_stack_);
  size_t cnt = 0;
  for (size_t pos = 0; pos < n; pos += kBatchSize) {
    const size_t m = std::min(kBatchSize, n - pos);
    RunBatch(program_,
             PairAccess{left != nullptr ? left + pos : nullptr, fixed_left,
                        right != nullptr ? right + pos : nullptr, fixed_right},
             m, lanes);
    if (result_integral_) {
      for (size_t i = 0; i < m; ++i) {
        if (lanes[i].i != 0) sel_out[cnt++] = static_cast<uint32_t>(pos + i);
      }
    } else {
      for (size_t i = 0; i < m; ++i) {
        if (lanes[i].d != 0.0) sel_out[cnt++] = static_cast<uint32_t>(pos + i);
      }
    }
  }
  return cnt;
}

void CompiledExpr::EvalBatchDoublePairs(const uint8_t* const* left,
                                        const uint8_t* fixed_left,
                                        const uint8_t* const* right,
                                        const uint8_t* fixed_right, size_t n,
                                        double* out) const {
  SABER_CHECK(!program_.empty());
  LaneVal* lanes = BatchScratch(max_stack_);
  for (size_t pos = 0; pos < n; pos += kBatchSize) {
    const size_t m = std::min(kBatchSize, n - pos);
    RunBatch(program_,
             PairAccess{left != nullptr ? left + pos : nullptr, fixed_left,
                        right != nullptr ? right + pos : nullptr, fixed_right},
             m, lanes);
    if (result_integral_) {
      for (size_t i = 0; i < m; ++i) {
        out[pos + i] = static_cast<double>(lanes[i].i);
      }
    } else {
      for (size_t i = 0; i < m; ++i) out[pos + i] = lanes[i].d;
    }
  }
}

void CompiledExpr::EvalBatchInt64Pairs(const uint8_t* const* left,
                                       const uint8_t* fixed_left,
                                       const uint8_t* const* right,
                                       const uint8_t* fixed_right, size_t n,
                                       int64_t* out) const {
  SABER_CHECK(!program_.empty());
  LaneVal* lanes = BatchScratch(max_stack_);
  for (size_t pos = 0; pos < n; pos += kBatchSize) {
    const size_t m = std::min(kBatchSize, n - pos);
    RunBatch(program_,
             PairAccess{left != nullptr ? left + pos : nullptr, fixed_left,
                        right != nullptr ? right + pos : nullptr, fixed_right},
             m, lanes);
    if (result_integral_) {
      for (size_t i = 0; i < m; ++i) out[pos + i] = lanes[i].i;
    } else {
      for (size_t i = 0; i < m; ++i) {
        out[pos + i] = static_cast<int64_t>(lanes[i].d);
      }
    }
  }
}

}  // namespace saber
