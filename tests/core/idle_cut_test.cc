#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>

#include "core/engine.h"
#include "reference/reference.h"
#include "runtime/strcat.h"
#include "test_util.h"

/// The idle cut (docs/architecture.md §3): when a query has no task in
/// flight, the dispatcher cuts its pending input once more at the last
/// window end the input has reached. The windows that input closed are
/// then emitted without waiting for φ to fill, and since a window end
/// splits no pane, the extra cut changes no output byte.

namespace saber {
namespace {

using testing::BuffersEqual;
using testing::RandomStream;
using testing::SplitStream;

Schema SynSchema() {
  return Schema::MakeStream({{"v", DataType::kFloat},
                             {"k", DataType::kInt32},
                             {"k2", DataType::kInt32}});
}

/// sum/avg/count of v over `w`, optionally grouped by k.
QueryDef AggQuery(WindowDefinition w, bool grouped) {
  Schema s = SynSchema();
  QueryBuilder b(w.ToString() + (grouped ? " grouped" : ""), s);
  b.Window(w);
  if (grouped) b.GroupBy({Col(s, "k")});
  b.Aggregate(AggregateFunction::kSum, Col(s, "v"), "sv");
  b.Aggregate(AggregateFunction::kAvg, Col(s, "v"), "av");
  b.Aggregate(AggregateFunction::kCount, nullptr, "n");
  return b.Build();
}

struct CutRun {
  ByteBuffer out;
  int64_t tasks = 0;
};

/// Inserts the stream's first `first_tuples` tuples, then the rest, into a
/// query of a not-yet-started engine, then starts and drains the engine.
/// The first insert finds no task in flight, so only it cuts at a window
/// end; the tasks it leaves queued keep the second insert on the φ grid.
CutRun RunWithFirstInsert(const EngineOptions& o, const QueryDef& def,
                          const std::vector<uint8_t>& stream,
                          size_t first_tuples) {
  CutRun run;
  Engine engine(o);
  QueryHandle* q = engine.AddQuery(def);
  q->SetSink([&](const uint8_t* d, size_t n) { run.out.Append(d, n); });
  const size_t split = first_tuples * def.input_schema[0].tuple_size();
  q->Insert(stream.data(), split);
  q->Insert(stream.data() + split, stream.size() - split);
  engine.Start();
  engine.Drain();
  run.tasks = q->tasks_on(Processor::kCpu) + q->tasks_on(Processor::kGpu);
  return run;
}

TEST(IdleCut, OutputBytesDoNotDependOnWhereTheCutLands) {
  const Schema s = SynSchema();
  constexpr size_t kTuples = 40000;
  // Non-integral floats spanning 2^60: a cut inside a pane would change
  // the float sums.
  const auto stream = SplitStream(s, kTuples, 71, /*non_integral=*/true);
  for (const bool gpu : {false, true}) {
    EngineOptions o;
    o.num_cpu_workers = 2;
    o.use_gpu = gpu;
    o.device.pace_transfers = false;
    o.device.num_executors = 2;
    o.task_size = 64 << 10;
    o.input_buffer_size = 4 << 20;  // holds the whole stream before Start
    const int64_t phi = static_cast<int64_t>(o.task_size / s.tuple_size() *
                                             s.tuple_size());
    const int64_t grid_tasks =
        CeilDiv(static_cast<int64_t>(stream.size()), phi);
    for (const bool grouped : {false, true}) {
      for (const WindowDefinition& w :
           {WindowDefinition::Count(1024, 256), WindowDefinition::Time(256, 64),
            WindowDefinition::Time(100, 100)}) {
        const QueryDef q = AggQuery(w, grouped);
        const size_t row = q.output_schema.tuple_size();
        const CutRun once = RunWithFirstInsert(o, q, stream, kTuples);
        ASSERT_GT(once.out.size(), 0u) << q.name;
        // Every first insert ends a few windows past a φ cut, so its idle
        // cut falls between two φ cuts: one task more than the grid's.
        EXPECT_EQ(once.tasks, grid_tasks + 1) << q.name;
        for (const size_t first : {2000, 5000, 12000, 30000}) {
          const CutRun run = RunWithFirstInsert(o, q, stream, first);
          EXPECT_EQ(run.tasks, grid_tasks + 1)
              << q.name << ", first insert " << first << ", gpu " << gpu;
          EXPECT_TRUE(BuffersEqual(run.out, once.out, row))
              << q.name << ", first insert " << first << ", gpu " << gpu;
        }
      }
    }
  }
}

/// Collects sink output and wakes a waiter on every batch.
struct SinkWaiter {
  std::mutex mu;
  std::condition_variable cv;
  ByteBuffer out;

  void Append(const uint8_t* d, size_t n) {
    std::lock_guard<std::mutex> lock(mu);
    out.Append(d, n);
    cv.notify_all();
  }
  /// False if fewer than `bytes` arrived within `timeout`.
  bool WaitFor(size_t bytes, std::chrono::seconds timeout) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, timeout, [&] { return out.size() >= bytes; });
  }
};

TEST(IdleCut, OneInsertEmitsEveryWindowItCloses) {
  const Schema s = SynSchema();
  // Integral values, so the engine's rows equal the reference's byte for
  // byte. At the default φ (1 MiB) no φ cut is made. At φ = 3 tuples the
  // insert needs 1667 tasks, far more than a query's 128 result slots, so
  // the gate defers most of the cut; the re-drive that cuts the last φ
  // task must still make the idle cut the insert owed, or the sub-φ tail
  // and the windows it closes never come out.
  const auto prefix = RandomStream(s, 5000, 72);
  const std::vector<QueryDef> queries = {
      AggQuery(WindowDefinition::Time(256, 64), /*grouped=*/true),
      AggQuery(WindowDefinition::Count(1024, 256), /*grouped=*/false),
      QueryBuilder("selection", s).Where(Gt(Col(s, "k"), Lit(4))).Build()};
  for (const size_t task_size : {size_t{1} << 20, 3 * s.tuple_size()}) {
    for (const bool gpu_pinned : {false, true}) {
      for (const QueryDef& def : queries) {
        const ByteBuffer want = ReferenceEvaluate(def, prefix);
        ASSERT_GT(want.size(), 0u) << def.name;
        EngineOptions o;
        o.num_cpu_workers = 1;
        o.use_gpu = gpu_pinned;
        o.device.pace_transfers = false;
        o.task_size = task_size;
        if (gpu_pinned) {
          o.scheduler = SchedulerKind::kStatic;
          o.static_assignment = {{0, Processor::kGpu}};
        }
        SinkWaiter sink;  // outlives the engine's workers
        Engine engine(o);
        QueryHandle* q = engine.AddQuery(def);
        q->SetSink([&](const uint8_t* d, size_t n) { sink.Append(d, n); });
        engine.Start();
        q->Insert(prefix.data(), prefix.size());
        const bool emitted =
            sink.WaitFor(want.size(), std::chrono::seconds(10));
        engine.Stop();
        const std::string where =
            StrCat(def.name, ", φ ", task_size, ", gpu pinned ", gpu_pinned);
        EXPECT_TRUE(emitted) << where << ": " << sink.out.size() << " of "
                             << want.size() << " bytes emitted";
        EXPECT_TRUE(
            BuffersEqual(sink.out, want, def.output_schema.tuple_size()))
            << where;
        if (gpu_pinned) {
          EXPECT_EQ(q->tasks_on(Processor::kCpu), 0) << where;
        }
      }
    }
  }
}

}  // namespace
}  // namespace saber
