#pragma once

#include <cstdint>
#include <string>
#include <vector>

/// \file trace_file.h
/// Reads the Chrome trace_event JSON that `saber_server --trace-out` writes
/// (obs::RenderChromeTrace) back into one record per task. The writer emits
/// one "X" event per stage and drops a stage whose stamp is missing or runs
/// backwards, so a task is complete only when all six stage events are
/// present and each one starts where the previous one ended.

namespace perfbench {

/// Stage stamps in NowNanos() units, in span order.
enum Stamp { kInsert, kCreate, kQueued, kSelect, kExecEnd, kSinkBegin, kDone,
             kNumStamps };

struct TracedTask {
  int64_t id = 0;
  int64_t bytes = 0;
  bool gpu = false;
  bool complete = false;
  int64_t t[kNumStamps] = {};
};

struct TraceFile {
  bool ok = false;
  int64_t spans_total = 0;
  int64_t spans_retained = 0;
  /// Every task that has at least one stage event, sorted by id.
  std::vector<TracedTask> tasks;
};

TraceFile ReadTraceFile(const std::string& path);

}  // namespace perfbench
