#include "relational/aggregate.h"

#include <gtest/gtest.h>

namespace saber {
namespace {

TEST(AggState, AddAndFinalize) {
  AggState s;
  AggInit(&s);
  for (double v : {3.0, 1.0, 4.0, 1.0, 5.0}) AggAdd(&s, v);
  EXPECT_DOUBLE_EQ(AggFinalize(AggregateFunction::kSum, s), 14.0);
  EXPECT_DOUBLE_EQ(AggFinalize(AggregateFunction::kCount, s), 5.0);
  EXPECT_DOUBLE_EQ(AggFinalize(AggregateFunction::kAvg, s), 2.8);
  EXPECT_DOUBLE_EQ(AggFinalize(AggregateFunction::kMin, s), 1.0);
  EXPECT_DOUBLE_EQ(AggFinalize(AggregateFunction::kMax, s), 5.0);
}

TEST(AggState, EmptyFinalizesToZero) {
  AggState s;
  AggInit(&s);
  for (auto f : {AggregateFunction::kCount, AggregateFunction::kSum,
                 AggregateFunction::kAvg, AggregateFunction::kMin,
                 AggregateFunction::kMax}) {
    EXPECT_DOUBLE_EQ(AggFinalize(f, s), 0.0);
  }
}

TEST(AggState, MergeEqualsSequential) {
  AggState a, b, all;
  AggInit(&a);
  AggInit(&b);
  AggInit(&all);
  for (double v : {1.0, 2.0, 3.0}) {
    AggAdd(&a, v);
    AggAdd(&all, v);
  }
  for (double v : {-5.0, 10.0}) {
    AggAdd(&b, v);
    AggAdd(&all, v);
  }
  AggMerge(&a, b);
  for (auto f : {AggregateFunction::kCount, AggregateFunction::kSum,
                 AggregateFunction::kAvg, AggregateFunction::kMin,
                 AggregateFunction::kMax}) {
    EXPECT_DOUBLE_EQ(AggFinalize(f, a), AggFinalize(f, all));
  }
}

}  // namespace
}  // namespace saber
