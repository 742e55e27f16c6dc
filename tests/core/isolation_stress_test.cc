#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <ostream>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "reference/reference.h"
#include "test_util.h"
#include "workloads/synthetic.h"

/// \file isolation_stress_test.cc
/// One query must not stall another. The dispatcher cuts a query's task
/// only while the task's result slot is free (docs/architecture.md §3), so
/// a query whose sink blocks, or whose downstream input is full, holds back
/// only its own input, and the workers go on to other queries' tasks. A
/// worker that waits for a result slot, or a producer blocked on a queue
/// full of another query's tasks, stalls these tests. There are no sleeps
/// and no wall-clock bounds: a stall hangs the test until its CTest
/// timeout.

namespace saber {
namespace {

using testing::BuffersEqual;

/// The result-slot ring of one query (QueryState::kSlots).
constexpr int64_t kSlots = 128;

struct Shape {
  const char* label;
  int cpu_workers;
  bool gpu;
};

// gtest_discover_tests names each case after this printout.
void PrintTo(const Shape& shape, std::ostream* os) { *os << shape.label; }

EngineOptions ShapeOptions(const Shape& shape, size_t task_size) {
  EngineOptions o;
  o.num_cpu_workers = shape.cpu_workers;
  o.use_gpu = shape.gpu;
  o.device.pace_transfers = false;
  o.device.num_executors = 2;
  o.task_size = task_size;
  return o;
}

QueryDef PassThrough(const char* name) {
  const Schema s = syn::SyntheticSchema();
  return QueryBuilder(name, s).Where(Ge(Col(s, "a2"), Lit(0))).Build();
}

int64_t TasksRun(const QueryHandle* q) {
  return q->tasks_on(Processor::kCpu) + q->tasks_on(Processor::kGpu);
}

std::vector<uint8_t> Bytes(const ByteBuffer& b) {
  return std::vector<uint8_t>(b.data(), b.data() + b.size());
}

class SlowSinkIsolation : public ::testing::TestWithParam<Shape> {};

TEST_P(SlowSinkIsolation, OtherQueryDeliversWhileASinkBlocks) {
  // Two pass-through selections of 32 MiB each at φ = 64 KiB: 512 tasks
  // per query, more than its result slots and more than the workers can
  // hold. The slow query's sink blocks on its first batch until the fast
  // query has delivered every byte. The fast producer starts once the slow
  // query's whole input is buffered and every task it may have cut has
  // run, so the workers have nothing of the slow query left to do.
  constexpr size_t kTuples = size_t{1} << 20;
  const QueryDef slow_def = PassThrough("slow");
  const QueryDef fast_def = PassThrough("fast");
  const auto slow_data = syn::Generate(kTuples, {.seed = 5});
  const auto fast_data = syn::Generate(kTuples, {.seed = 6});
  const ByteBuffer slow_want = ReferenceEvaluate(slow_def, slow_data);
  const ByteBuffer fast_want = ReferenceEvaluate(fast_def, fast_data);
  const size_t row = slow_def.output_schema.tuple_size();

  ByteBuffer slow_got, fast_got;
  std::atomic<bool> fast_done{false};
  Engine engine(ShapeOptions(GetParam(), 64 << 10));
  QueryHandle* slow = engine.AddQuery(slow_def);
  QueryHandle* fast = engine.AddQuery(fast_def);
  slow->SetSink([&](const uint8_t* d, size_t n) {
    fast_done.wait(false);
    slow_got.Append(d, n);
  });
  fast->SetSink([&](const uint8_t* d, size_t n) {
    fast_got.Append(d, n);
    if (fast_got.size() == fast_want.size()) {
      fast_done.store(true);
      fast_done.notify_all();
    }
  });
  engine.Start();
  std::thread slow_producer(
      [&] { slow->Insert(slow_data.data(), slow_data.size()); });
  while (slow->tuples_in() < static_cast<int64_t>(kTuples) ||
         TasksRun(slow) < kSlots) {
    std::this_thread::yield();
  }
  fast->Insert(fast_data.data(), fast_data.size());
  fast_done.wait(false);  // hangs if the fast query starves
  slow_producer.join();
  engine.Drain();

  EXPECT_TRUE(BuffersEqual(fast_got, fast_want, row));
  EXPECT_TRUE(BuffersEqual(slow_got, slow_want, row));
}

INSTANTIATE_TEST_SUITE_P(Shapes, SlowSinkIsolation,
                         ::testing::Values(Shape{"cpu2", 2, false},
                                           Shape{"cpu4", 4, false},
                                           Shape{"cpu4_gpu", 4, true}));

class JoinGraphIsolation : public ::testing::TestWithParam<Shape> {};

TEST_P(JoinGraphIsolation, LateUpstreamUnblocksTheJoin) {
  // Pass-through selections A and B feed the two inputs of a θ-join J
  // through Engine::Connect; every input buffer holds 8 MiB, 256 tasks at
  // φ = 32 KiB. J cannot cut past B's first timestamp, so J's input 0
  // fills, and the worker that holds A's assembly token sleeps in
  // InsertInto. A's 16 MiB insert returns once A's whole input is buffered,
  // which takes J's first 8 MiB. B starts only then, once every task A may
  // have cut beyond the ones J took in has run: the other workers have
  // nothing of A left to do and must run B's tasks.
  constexpr size_t kBuffer = size_t{8} << 20;
  constexpr size_t kPhi = size_t{32} << 10;
  constexpr size_t kTuplesA = size_t{1} << 19;
  // One B tuple every 64 time units covers A's timestamps (64 tuples per
  // unit) and keeps the reference join, O(|A|·|B|), short.
  constexpr int64_t kStepB = 64;
  const size_t tuples_b = kTuplesA / 64 / kStepB + 1;
  const QueryDef a_def = PassThrough("A");
  const QueryDef b_def = PassThrough("B");
  const QueryDef j_def = syn::MakeJoin(1, WindowDefinition::Time(2, 1));
  const auto a_data = syn::Generate(kTuplesA, {.seed = 31});
  auto b_data = syn::Generate(tuples_b, {.seed = 32});
  const size_t tsz = a_def.input_schema[0].tuple_size();
  for (size_t i = 0; i < tuples_b; ++i) {
    const int64_t ts = static_cast<int64_t>(i) * kStepB;
    std::memcpy(b_data.data() + i * tsz, &ts, sizeof(ts));
  }
  const ByteBuffer want = ReferenceEvaluate(
      j_def, Bytes(ReferenceEvaluate(a_def, a_data)),
      Bytes(ReferenceEvaluate(b_def, b_data)));
  ASSERT_GT(want.size(), 0u);

  EngineOptions o = ShapeOptions(GetParam(), kPhi);
  o.input_buffer_size = kBuffer;
  Engine engine(o);
  QueryHandle* a = engine.AddQuery(a_def);
  QueryHandle* b = engine.AddQuery(b_def);
  QueryHandle* j = engine.AddQuery(j_def);
  engine.Connect(a, j, 0);
  engine.Connect(b, j, 1);
  ByteBuffer got;
  j->SetSink([&](const uint8_t* d, size_t n) { got.Append(d, n); });
  engine.Start();
  a->Insert(a_data.data(), a_data.size());
  ASSERT_EQ(j->bytes_in(), static_cast<int64_t>(kBuffer));
  while (TasksRun(a) < j->bytes_in() / static_cast<int64_t>(kPhi) + kSlots) {
    std::this_thread::yield();
  }
  b->Insert(b_data.data(), b_data.size());
  engine.Drain();  // hangs if B's tasks never run, so J never cuts

  EXPECT_EQ(j->bytes_in(), static_cast<int64_t>(a_data.size() + b_data.size()));
  EXPECT_TRUE(BuffersEqual(got, want, j_def.output_schema.tuple_size()));
}

INSTANTIATE_TEST_SUITE_P(Shapes, JoinGraphIsolation,
                         ::testing::Values(Shape{"cpu2", 2, false},
                                           Shape{"cpu4", 4, false}));

}  // namespace
}  // namespace saber
