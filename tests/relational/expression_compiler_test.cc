#include "relational/expression_compiler.h"

#include <gtest/gtest.h>

#include <random>

namespace saber {
namespace {

// One-tuple (pair) evaluation through the batch entry points.
double EvalDouble(const CompiledExpr& c, const uint8_t* row) {
  double v = 0;
  c.EvalBatchDouble(row, 0, nullptr, 1, &v);
  return v;
}
int64_t EvalInt64(const CompiledExpr& c, const uint8_t* row) {
  int64_t v = 0;
  c.EvalBatchInt64(row, 0, nullptr, 1, &v);
  return v;
}
bool EvalBool(const CompiledExpr& c, const uint8_t* row) {
  uint32_t sel = 0;
  return c.EvalBatchBool(row, 0, 1, &sel) == 1;
}
bool EvalBool(const CompiledExpr& c, const uint8_t* left,
              const uint8_t* right) {
  uint32_t sel = 0;
  return c.EvalBatchBoolPairs(nullptr, left, nullptr, right, 1, &sel) == 1;
}

class CompilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_ = Schema::MakeStream({{"a", DataType::kInt32},
                                  {"b", DataType::kInt32},
                                  {"f", DataType::kFloat}});
    row_.resize(schema_.tuple_size());
    TupleWriter w(row_.data(), &schema_);
    w.SetInt64(0, 77).SetInt32(1, 6).SetInt32(2, 4).SetFloat(3, 2.5f);
    t_ = TupleRef(row_.data(), &schema_);
  }

  Schema schema_;
  std::vector<uint8_t> row_;
  TupleRef t_;
};

TEST_F(CompilerTest, MatchesInterpreterOnArithmetic) {
  auto e = Add(Mul(Col(schema_, "a"), Lit(3)), Div(Col(schema_, "f"), Lit(2.0)));
  CompiledExpr c = CompiledExpr::Compile(*e, schema_);
  EXPECT_DOUBLE_EQ(EvalDouble(c, row_.data()), e->EvalDouble(t_, nullptr));
}

TEST_F(CompilerTest, MatchesInterpreterOnPredicates) {
  auto e = And({Gt(Col(schema_, "a"), Lit(5)),
                Or({Lt(Col(schema_, "b"), Lit(3)), Ge(Col(schema_, "f"), Lit(2.0))})});
  CompiledExpr c = CompiledExpr::Compile(*e, schema_);
  EXPECT_EQ(EvalBool(c, row_.data()), e->EvalBool(t_, nullptr));
}

TEST_F(CompilerTest, NotAndMod) {
  auto e = Not(Eq(Mod(Col(schema_, "a"), Lit(4)), Lit(0)));
  CompiledExpr c = CompiledExpr::Compile(*e, schema_);
  EXPECT_EQ(EvalBool(c, row_.data()), e->EvalBool(t_, nullptr));
}

TEST_F(CompilerTest, TwoSidedPredicate) {
  Schema right = Schema::MakeStream({{"x", DataType::kInt32}});
  std::vector<uint8_t> rrow(right.tuple_size());
  TupleWriter w(rrow.data(), &right);
  w.SetInt64(0, 99).SetInt32(1, 6);
  auto pred = Eq(Col(schema_, "a"), Col(right, "x", Side::kRight));
  CompiledExpr c = CompiledExpr::Compile(*pred, schema_, &right);
  EXPECT_TRUE(EvalBool(c, row_.data(), rrow.data()));
}

TEST_F(CompilerTest, StackDepthTracking) {
  // A right-leaning chain needs only constant stack.
  ExprPtr e = Lit(1);
  for (int i = 0; i < 30; ++i) e = Add(Lit(1), e);
  CompiledExpr c = CompiledExpr::Compile(*e, schema_);
  EXPECT_LE(c.max_stack(), 32u);
  EXPECT_DOUBLE_EQ(EvalDouble(c, row_.data()), 31.0);
}

TEST_F(CompilerTest, DeepProgramsBatchMatchScalar) {
  // The batch scratch is sized per program, so every depth Compile accepts
  // evaluates batch-at-a-time, identically to the Expression tree.
  std::mt19937 rng(31);
  std::uniform_int_distribution<int> val(-9, 9);
  const size_t n = 1500;  // crosses an internal batch boundary
  const size_t tsz = schema_.tuple_size();
  std::vector<uint8_t> data(n * tsz);
  for (size_t i = 0; i < n; ++i) {
    TupleWriter w(data.data() + i * tsz, &schema_);
    w.SetInt64(0, 0).SetInt32(1, val(rng)).SetInt32(2, val(rng));
    w.SetFloat(3, static_cast<float>(val(rng)) / 4.0f);
  }
  // Right-leaning chain: each level keeps its left operand on the stack,
  // alternating the int64 and double lanes.
  auto chain = [&](size_t depth) {
    ExprPtr e = Col(schema_, "a");
    for (size_t i = 1; i < depth; ++i) {
      e = i % 2 == 0 ? Sub(Col(schema_, "b"), e) : Add(Col(schema_, "f"), e);
    }
    return e;
  };
  std::vector<double> d(n);
  std::vector<int64_t> i64(n);
  std::vector<uint32_t> sel(n);
  for (size_t depth : {size_t{31}, CompiledExpr::kMaxStack}) {
    ExprPtr e = chain(depth);
    ASSERT_EQ(CompiledExpr::StackDepth(*e, schema_), depth);
    CompiledExpr c = CompiledExpr::Compile(*e, schema_);
    ASSERT_EQ(c.max_stack(), depth);
    c.EvalBatchDouble(data.data(), tsz, nullptr, n, d.data());
    c.EvalBatchInt64(data.data(), tsz, nullptr, n, i64.data());
    const size_t cnt = c.EvalBatchBool(data.data(), tsz, n, sel.data());
    size_t expect = 0;
    for (size_t i = 0; i < n; ++i) {
      const TupleRef row(data.data() + i * tsz, &schema_);
      ASSERT_EQ(d[i], e->EvalDouble(row, nullptr))
          << "depth " << depth << " i=" << i;
      ASSERT_EQ(i64[i], e->EvalInt64(row, nullptr))
          << "depth " << depth << " i=" << i;
      if (e->EvalBool(row, nullptr)) {
        ASSERT_LT(expect, cnt);
        ASSERT_EQ(sel[expect++], i) << "depth " << depth;
      }
    }
    ASSERT_EQ(expect, cnt) << "depth " << depth;
  }
  // One level deeper is measurable without compiling (admission rejects it).
  EXPECT_EQ(CompiledExpr::StackDepth(*chain(CompiledExpr::kMaxStack + 1),
                                     schema_),
            CompiledExpr::kMaxStack + 1);
}

TEST_F(CompilerTest, Int64KeysBeyondTwoPow53StayExact) {
  // Regression: the pre-typed compiler evaluated every op through double,
  // so 64-bit equality/modulo silently rounded beyond 2^53. The int64 lane
  // must keep group-key arithmetic exact.
  Schema s = Schema::MakeStream({{"id", DataType::kInt64}});
  const int64_t big = (int64_t{1} << 53) + 1;  // not representable as double
  std::vector<uint8_t> row(s.tuple_size());
  TupleWriter w(row.data(), &s);
  w.SetInt64(0, 1).SetInt64(1, big);
  TupleRef t(row.data(), &s);

  // big == 2^53 compares false exactly; through double both are 2^53.
  auto eq = Eq(Col(s, "id"), Lit(int64_t{1} << 53));
  CompiledExpr ceq = CompiledExpr::Compile(*eq, s);
  EXPECT_FALSE(EvalBool(ceq, row.data()));
  EXPECT_EQ(EvalBool(ceq, row.data()), eq->EvalBool(t, nullptr));

  auto gt = Gt(Col(s, "id"), Lit(int64_t{1} << 53));
  EXPECT_TRUE(EvalBool(CompiledExpr::Compile(*gt, s), row.data()));

  // (big % 2) == 1; through double the +1 is rounded away and the result
  // would be 0.
  auto mod = Mod(Col(s, "id"), Lit(int64_t{2}));
  CompiledExpr cmod = CompiledExpr::Compile(*mod, s);
  EXPECT_TRUE(cmod.integral_result());
  EXPECT_EQ(EvalInt64(cmod, row.data()), 1);
  EXPECT_EQ(EvalInt64(cmod, row.data()), mod->EvalInt64(t, nullptr));

  // Exact arithmetic survives composition: (id - 1) stays on the int lane.
  auto sub = Sub(Col(s, "id"), Lit(int64_t{1}));
  EXPECT_EQ(EvalInt64(CompiledExpr::Compile(*sub, s), row.data()),
            int64_t{1} << 53);
}

TEST_F(CompilerTest, BatchEvaluatorsMatchScalar) {
  // Dense and gathered batch evaluation must agree with the Expression tree
  // bit for bit.
  std::mt19937 rng(7);
  std::uniform_int_distribution<int> val(-40, 40);
  const size_t n = 2500;  // > 2 internal batches
  const size_t tsz = schema_.tuple_size();
  std::vector<uint8_t> data(n * tsz);
  for (size_t i = 0; i < n; ++i) {
    TupleWriter w(data.data() + i * tsz, &schema_);
    w.SetInt64(0, val(rng)).SetInt32(1, val(rng)).SetInt32(2, val(rng));
    w.SetFloat(3, static_cast<float>(val(rng)) / 4.0f);
  }

  const std::vector<ExprPtr> exprs = {
      Add(Mul(Col(schema_, "a"), Lit(int64_t{3})), Col(schema_, "b")),
      Div(Col(schema_, "f"), Col(schema_, "a")),
      And({Gt(Col(schema_, "a"), Lit(int64_t{0})),
           Lt(Col(schema_, "f"), Lit(5.0))}),
      Mod(ColAt(schema_, 0), Lit(int64_t{7})),
      Not(Eq(Col(schema_, "b"), Lit(int64_t{2}))),
  };

  std::vector<uint32_t> sel(n);
  std::vector<double> d(n);
  std::vector<int64_t> i64(n);
  for (const ExprPtr& e : exprs) {
    CompiledExpr c = CompiledExpr::Compile(*e, schema_);

    // Dense double / int64 columns.
    c.EvalBatchDouble(data.data(), tsz, nullptr, n, d.data());
    c.EvalBatchInt64(data.data(), tsz, nullptr, n, i64.data());
    for (size_t i = 0; i < n; ++i) {
      const TupleRef row(data.data() + i * tsz, &schema_);
      ASSERT_EQ(d[i], e->EvalDouble(row, nullptr))
          << e->ToString() << " i=" << i;
      ASSERT_EQ(i64[i], e->EvalInt64(row, nullptr))
          << e->ToString() << " i=" << i;
    }

    // Selection vector.
    const size_t cnt = c.EvalBatchBool(data.data(), tsz, n, sel.data());
    size_t expect = 0;
    for (size_t i = 0; i < n; ++i) {
      if (e->EvalBool(TupleRef(data.data() + i * tsz, &schema_), nullptr)) {
        ASSERT_LT(expect, cnt);
        ASSERT_EQ(sel[expect], i) << e->ToString();
        ++expect;
      }
    }
    ASSERT_EQ(expect, cnt) << e->ToString();

    // Gather through the selection vector.
    if (cnt > 0) {
      c.EvalBatchDouble(data.data(), tsz, sel.data(), cnt, d.data());
      for (size_t j = 0; j < cnt; ++j) {
        const TupleRef row(data.data() + sel[j] * tsz, &schema_);
        ASSERT_EQ(d[j], e->EvalDouble(row, nullptr));
      }
    }
  }
}

TEST_F(CompilerTest, BatchPairEvaluatorsMatchScalar) {
  Schema right = Schema::MakeStream({{"x", DataType::kInt32}});
  std::mt19937 rng(11);
  std::uniform_int_distribution<int> val(-10, 10);
  const size_t n = 1500;
  std::vector<uint8_t> rrows(n * right.tuple_size());
  std::vector<const uint8_t*> rptrs(n);
  for (size_t i = 0; i < n; ++i) {
    uint8_t* p = rrows.data() + i * right.tuple_size();
    TupleWriter w(p, &right);
    w.SetInt64(0, val(rng)).SetInt32(1, val(rng));
    rptrs[i] = p;
  }

  auto pred = And({Le(Col(schema_, "a"), Col(right, "x", Side::kRight)),
                   Ne(Col(right, "x", Side::kRight), Lit(int64_t{0}))});
  CompiledExpr c = CompiledExpr::Compile(*pred, schema_, &right);

  std::vector<uint32_t> sel(n);
  const size_t cnt = c.EvalBatchBoolPairs(nullptr, row_.data(), rptrs.data(),
                                          nullptr, n, sel.data());
  size_t expect = 0;
  for (size_t i = 0; i < n; ++i) {
    const TupleRef r(rptrs[i], &right);
    if (pred->EvalBool(t_, &r)) {
      ASSERT_LT(expect, cnt);
      ASSERT_EQ(sel[expect], i);
      ++expect;
    }
  }
  ASSERT_EQ(expect, cnt);

  auto sum = Add(Col(schema_, "a"), Col(right, "x", Side::kRight));
  CompiledExpr csum = CompiledExpr::Compile(*sum, schema_, &right);
  std::vector<int64_t> i64(n);
  csum.EvalBatchInt64Pairs(nullptr, row_.data(), rptrs.data(), nullptr, n,
                           i64.data());
  for (size_t i = 0; i < n; ++i) {
    const TupleRef r(rptrs[i], &right);
    ASSERT_EQ(i64[i], sum->EvalInt64(t_, &r));
  }
}

TEST_F(CompilerTest, RandomizedEquivalenceWithInterpreter) {
  // Property: for random expression trees and random tuples, the compiled
  // program and the interpreter agree.
  std::mt19937 rng(42);
  std::uniform_int_distribution<int> pick(0, 9);
  std::uniform_int_distribution<int> val(-20, 20);

  std::function<ExprPtr(int)> gen = [&](int depth) -> ExprPtr {
    if (depth == 0 || pick(rng) < 3) {
      if (pick(rng) < 5) return ColAt(schema_, pick(rng) % 4);
      return Lit(static_cast<int64_t>(val(rng)));
    }
    switch (pick(rng)) {
      case 0: return Add(gen(depth - 1), gen(depth - 1));
      case 1: return Sub(gen(depth - 1), gen(depth - 1));
      case 2: return Mul(gen(depth - 1), gen(depth - 1));
      case 3: return Div(gen(depth - 1), gen(depth - 1));
      case 4: return Gt(gen(depth - 1), gen(depth - 1));
      case 5: return Lt(gen(depth - 1), gen(depth - 1));
      case 6: return Eq(gen(depth - 1), gen(depth - 1));
      case 7: return And({gen(depth - 1), gen(depth - 1)});
      case 8: return Or({gen(depth - 1), gen(depth - 1)});
      default: return Not(gen(depth - 1));
    }
  };

  for (int iter = 0; iter < 200; ++iter) {
    ExprPtr e = gen(4);
    CompiledExpr c = CompiledExpr::Compile(*e, schema_);
    std::vector<uint8_t> row(schema_.tuple_size());
    TupleWriter w(row.data(), &schema_);
    w.SetInt64(0, val(rng)).SetInt32(1, val(rng)).SetInt32(2, val(rng));
    w.SetFloat(3, static_cast<float>(val(rng)));
    TupleRef t(row.data(), &schema_);
    const double interp = e->EvalDouble(t, nullptr);
    const double compiled = EvalDouble(c, row.data());
    EXPECT_DOUBLE_EQ(compiled, interp) << "iter=" << iter << " expr=" << e->ToString();
  }
}

}  // namespace
}  // namespace saber
