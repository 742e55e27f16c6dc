#pragma once

#include <vector>

#include "relational/expression.h"

/// \file expression_compiler.h
/// Lowers an Expression tree into a flat postfix program executed by a small
/// stack machine. This models SABER's code generation (§5.4: operators are
/// templates populated with query-specific functions): the batch operators
/// (cpu_operators.cc), which the CPU workers and the simulated GPGPU both
/// run, execute these programs batch-at-a-time with per-instruction loops
/// and no per-tuple virtual dispatch. Boolean connectives are evaluated
/// arithmetically without short-circuiting, which matches SIMD predication
/// on real GPGPUs (all lanes evaluate every predicate).
///
/// The stack machine is *typed*: every program value lives in either the
/// int64 lane or the double lane, decided statically at compile time by
/// mirroring Expression::integral(). Integer arithmetic, modulo and
/// comparisons therefore stay exact for the full int64 range — evaluating
/// them through double (as a single-lane design would) silently loses
/// precision beyond 2^53, which corrupts e.g. GROUP-BY keys derived from
/// wide identifiers. Conversions between lanes are explicit instructions
/// (kCastF64 / kTestF64) emitted exactly where the Expression tree itself
/// widens or tests a value, so compiled results are bit-identical to the
/// interpreted tree (Expression::Eval*, which the reference model runs).

namespace saber {

class CompiledExpr {
 public:
  enum class Op : uint8_t {
    // Column loads. Integer columns land in the int64 lane, floating-point
    // columns in the double lane (mirroring Expression::integral()).
    kPushColInt32,
    kPushColInt64,
    kPushColFloat,
    kPushColDouble,
    kPushConstF64,
    kPushConstI64,
    // Lane conversions on the stack top.
    kCastF64,  // int64 -> double (Expression widening at mixed-type sites)
    kTestF64,  // double -> int64 truthiness (v != 0.0), for boolean operands
    // Double-lane arithmetic. kDivF64 yields 0 for a zero divisor; kModF64
    // truncates both operands to int64 first — both mirror ArithExpr.
    kAddF64,
    kSubF64,
    kMulF64,
    kDivF64,
    kModF64,
    // Int64-lane arithmetic (exact; division always lowers to the double
    // lane because ArithExpr never treats kDiv as integral).
    kAddI64,
    kSubI64,
    kMulI64,
    kModI64,
    // Comparisons; results are 0/1 in the int64 lane.
    kLtF64,
    kLeF64,
    kEqF64,
    kNeF64,
    kGeF64,
    kGtF64,
    kLtI64,
    kLeI64,
    kEqI64,
    kNeI64,
    kGeI64,
    kGtI64,
    // Boolean connectives on the int64 lane. Operands need not be
    // normalized to 0/1: truthiness is value != 0. No short-circuiting.
    kAnd,
    kOr,
    kNot,
  };

  struct Instr {
    Op op;
    uint8_t side;      // 0 = left tuple, 1 = right tuple (join predicates)
    uint16_t offset;   // byte offset of the column within the tuple
    double constant;   // for kPushConstF64
    int64_t iconst;    // for kPushConstI64
  };

  /// Tuples evaluated per batch-interpreter inner loop. Large enough to
  /// amortize instruction dispatch to noise, small enough that one stack
  /// slot's lane (8 KiB) stays L1-resident.
  static constexpr size_t kBatchSize = 1024;
  /// Stack bound for every program. Batch scratch is sized per program
  /// (max_stack() slots of kBatchSize values), so the worst case is
  /// 64 x 1024 x 8 B = 512 KiB per evaluating thread.
  /// QueryDef::ValidateLimits rejects deeper expressions at admission;
  /// Compile aborts on them.
  static constexpr size_t kMaxStack = 64;

  /// Compiles `expr`; offsets are resolved against the expression's schemas
  /// (already baked into ColumnExpr instances at build time). Requires
  /// StackDepth(expr, ...) <= kMaxStack.
  static CompiledExpr Compile(const Expression& expr, const Schema& left_schema,
                              const Schema* right_schema = nullptr);

  /// Stack slots the compiled program for `expr` needs, computed without
  /// enforcing kMaxStack (the admission-time check).
  static size_t StackDepth(const Expression& expr, const Schema& left_schema,
                           const Schema* right_schema = nullptr);

  // -------------------------------------------------------------------------
  // Batch evaluation. All entry points require a non-empty program; they
  // chunk internally into kBatchSize runs, so `n` is unbounded. Thread-safe
  // (scratch is thread-local); indices written to / read from `sel` are
  // relative to `base`.
  // -------------------------------------------------------------------------

  /// Evaluates the predicate over `n` contiguous tuples `stride` bytes
  /// apart, writing the indices of passing tuples to `sel_out` (capacity
  /// >= n) in ascending order. Returns the number of survivors.
  size_t EvalBatchBool(const uint8_t* base, size_t stride, size_t n,
                       uint32_t* sel_out) const;

  /// Evaluates the program as a double column: out[i] = eval(tuple sel[i])
  /// for i in [0, n), or tuple i when `sel` is null (dense).
  void EvalBatchDouble(const uint8_t* base, size_t stride, const uint32_t* sel,
                       size_t n, double* out) const;

  /// Same, widened/truncated to int64 exactly like Expression::EvalInt64.
  void EvalBatchInt64(const uint8_t* base, size_t stride, const uint32_t* sel,
                      size_t n, int64_t* out) const;

  // Pair variants for join predicates/projections: each side is either a
  // per-row pointer array (`left`/`right`, non-null) or a single broadcast
  // tuple (`fixed_left`/`fixed_right`) — exactly one of each pair non-null.
  size_t EvalBatchBoolPairs(const uint8_t* const* left,
                            const uint8_t* fixed_left,
                            const uint8_t* const* right,
                            const uint8_t* fixed_right, size_t n,
                            uint32_t* sel_out) const;
  void EvalBatchDoublePairs(const uint8_t* const* left,
                            const uint8_t* fixed_left,
                            const uint8_t* const* right,
                            const uint8_t* fixed_right, size_t n,
                            double* out) const;
  void EvalBatchInt64Pairs(const uint8_t* const* left,
                           const uint8_t* fixed_left,
                           const uint8_t* const* right,
                           const uint8_t* fixed_right, size_t n,
                           int64_t* out) const;

  /// True if the program's result lives in the int64 lane (the compiled
  /// mirror of Expression::integral()).
  bool integral_result() const { return result_integral_; }

  const std::vector<Instr>& program() const { return program_; }
  size_t max_stack() const { return max_stack_; }
  bool empty() const { return program_.empty(); }

 private:
  void Emit(const Expression& e, const Schema& ls, const Schema* rs);
  void EmitAsF64(const Expression& e, const Schema& ls, const Schema* rs);
  void EmitAsBool(const Expression& e, const Schema& ls, const Schema* rs);

  std::vector<Instr> program_;
  size_t max_stack_ = 0;
  bool result_integral_ = false;
};

}  // namespace saber
