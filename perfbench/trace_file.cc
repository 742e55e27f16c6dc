#include "trace_file.h"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>

namespace perfbench {

namespace {

/// Stage event name → (begin stamp, end stamp).
struct StageName {
  const char* name;
  Stamp begin;
  Stamp end;
};
constexpr StageName kStages[] = {
    {"insert", kInsert, kCreate},       {"dispatch", kCreate, kQueued},
    {"queue-wait", kQueued, kSelect},   {"execute", kSelect, kExecEnd},
    {"assembly", kExecEnd, kSinkBegin}, {"sink", kSinkBegin, kDone},
};

/// The text after `"key":` inside [from, to), or nullptr.
const char* Field(const std::string& s, size_t from, size_t to,
                  const char* key) {
  const std::string pat = std::string("\"") + key + "\":";
  const size_t at = s.find(pat, from);
  if (at == std::string::npos || at >= to) return nullptr;
  return s.c_str() + at + pat.size();
}

int64_t MicrosToNanos(const char* p) {
  return std::llround(std::strtod(p, nullptr) * 1000.0);
}

int64_t MetaInt(const std::string& s, const char* key) {
  const char* p = Field(s, 0, s.size(), key);
  if (p == nullptr) return 0;
  if (*p == '"') ++p;
  return std::atoll(p);
}

}  // namespace

TraceFile ReadTraceFile(const std::string& path) {
  TraceFile out;
  std::ifstream f(path, std::ios::binary);
  if (!f) return out;
  const std::string s((std::istreambuf_iterator<char>(f)),
                      std::istreambuf_iterator<char>());
  if (s.find("\"traceEvents\"") == std::string::npos) return out;
  out.ok = true;
  out.spans_total = MetaInt(s, "spansTotal");
  out.spans_retained = MetaInt(s, "spansRetained");

  struct Partial {
    TracedTask task;
    bool begin_seen[kNumStamps] = {};
    bool end_seen[kNumStamps] = {};
    int events = 0;
    bool chained = true;
  };
  std::map<int64_t, Partial> by_id;
  size_t pos = 0;
  for (;;) {
    const size_t at = s.find("{\"name\":\"", pos);
    if (at == std::string::npos) break;
    const size_t end = s.find("}}", at);
    if (end == std::string::npos) break;
    pos = end + 2;
    const char* name = s.c_str() + at + 9;
    const StageName* stage = nullptr;
    for (const StageName& st : kStages) {
      const size_t n = std::strlen(st.name);
      if (std::strncmp(name, st.name, n) == 0 && name[n] == '"') stage = &st;
    }
    const char* ts = Field(s, at, end, "ts");
    const char* dur = Field(s, at, end, "dur");
    const char* task = Field(s, at, end, "task");
    const char* bytes = Field(s, at, end, "bytes");
    const char* backend = Field(s, at, end, "backend");
    if (stage == nullptr || ts == nullptr || dur == nullptr ||
        task == nullptr) {
      continue;
    }
    Partial& p = by_id[std::atoll(task)];
    p.task.id = std::atoll(task);
    if (bytes != nullptr) p.task.bytes = std::atoll(bytes);
    if (backend != nullptr) p.task.gpu = std::strncmp(backend, "\"gpu\"", 5) == 0;
    const int64_t b = MicrosToNanos(ts);
    const int64_t e = b + MicrosToNanos(dur);
    // Adjacent stages share a stamp; each side is rounded to the
    // microsecond-with-three-decimals the writer prints, so allow 2 ns.
    auto put = [&](Stamp k, int64_t v, bool* seen) {
      if ((p.begin_seen[k] || p.end_seen[k]) && std::llabs(p.task.t[k] - v) > 2) {
        p.chained = false;
      }
      p.task.t[k] = v;
      seen[k] = true;
    };
    put(stage->begin, b, p.begin_seen);
    put(stage->end, e, p.end_seen);
    ++p.events;
  }
  for (auto& [id, p] : by_id) {
    p.task.complete = p.events == 6 && p.chained;
    out.tasks.push_back(p.task);
  }
  return out;
}

}  // namespace perfbench
