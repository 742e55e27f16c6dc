#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <type_traits>

#include "runtime/status.h"
#include "runtime/strcat.h"

// ThreadSanitizer does not model fences (and rejects them outright under
// -Werror=tsan), so the seqlock's read-side fence compiles away there: the
// payload words are atomics, which TSan reasons about directly, and the
// strict read ordering the fence provides in production builds is not what
// a race-detection build is exercising.
#if defined(__SANITIZE_THREAD__)
#define SABER_NO_FENCES 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SABER_NO_FENCES 1
#endif
#endif

namespace saber::obs {

static_assert(std::is_trivially_copyable_v<TaskSpan>,
              "TaskSpan is copied through the slot ring word-by-word");

namespace {
inline void SeqlockAcquireFence() {
#if !defined(SABER_NO_FENCES)
  std::atomic_thread_fence(std::memory_order_acquire);
#endif
}
}  // namespace

TraceRing::TraceRing(double sample_rate, size_t capacity)
    : rate_(std::clamp(sample_rate, 0.0, 1.0)),
      threshold_(rate_ >= 1.0
                     ? 0xffffffffu
                     : static_cast<uint32_t>(rate_ * 4294967296.0)),
      slots_(std::max<size_t>(1, capacity)) {}

void TraceRing::Push(const TaskSpan& span) {
  uint64_t buf[Slot::kWords] = {};
  std::memcpy(buf, &span, sizeof(TaskSpan));
  const uint64_t idx = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[idx % slots_.size()];
  // Seqlock write with the version derived from the ticket: lap L of a slot
  // publishes 2L+1 while copying and 2L+2 when done. The claim is a CAS from
  // an even (idle) version of an older lap, so two writers never copy into
  // one slot at once. A writer that finds the slot mid-write, or already
  // claimed by a newer lap, drops its span: the ring was overrun by a whole
  // lap inside one copy, and Drain skips that index. The acq_rel claim keeps
  // the word stores from hoisting above it; the release publish keeps them
  // from sinking below.
  const uint64_t writing = 2 * (idx / slots_.size()) + 1;
  uint64_t v = slot.version.load(std::memory_order_relaxed);
  do {
    if ((v & 1) != 0 || v >= writing) return;
  } while (!slot.version.compare_exchange_weak(v, writing,
                                               std::memory_order_acq_rel,
                                               std::memory_order_relaxed));
  for (size_t w = 0; w < Slot::kWords; ++w) {
    slot.words[w].store(buf[w], std::memory_order_relaxed);
  }
  slot.version.store(writing + 1, std::memory_order_release);
}

std::vector<TaskSpan> TraceRing::Drain() const {
  const uint64_t end = next_.load(std::memory_order_acquire);
  const uint64_t count = std::min<uint64_t>(end, slots_.size());
  std::vector<TaskSpan> out;
  out.reserve(count);
  for (uint64_t i = end - count; i < end; ++i) {
    const Slot& slot = slots_[i % slots_.size()];
    // Accept only the version ticket i's own writer publishes. Anything else
    // is a copy in progress, a dropped span, or a newer lap's span.
    const uint64_t done = 2 * (i / slots_.size()) + 2;
    for (int attempt = 0; attempt < 4; ++attempt) {
      const uint64_t v1 = slot.version.load(std::memory_order_acquire);
      if (v1 != done) continue;
      uint64_t buf[Slot::kWords];
      for (size_t w = 0; w < Slot::kWords; ++w) {
        buf[w] = slot.words[w].load(std::memory_order_relaxed);
      }
      // The fence keeps the word loads from sinking below the validation
      // read; the acquire there alone would only stop it hoisting above.
      SeqlockAcquireFence();
      const uint64_t v2 = slot.version.load(std::memory_order_acquire);
      if (v2 == done) {
        TaskSpan copy;
        std::memcpy(&copy, buf, sizeof(TaskSpan));
        out.push_back(copy);
        break;
      }
    }
  }
  return out;
}

namespace {

void AppendEvent(std::string* out, bool* first, const TaskSpan& s,
                 const char* name, int64_t begin_nanos, int64_t end_nanos) {
  if (end_nanos < begin_nanos || begin_nanos == 0) return;
  if (!*first) *out += ",\n";
  *first = false;
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%.3f", begin_nanos / 1000.0);
  *out += "{\"name\":\"";
  *out += name;
  *out += "\",\"cat\":\"task\",\"ph\":\"X\",\"pid\":1,\"tid\":";
  *out += StrCat(s.query_index);
  *out += ",\"ts\":";
  *out += buf;
  std::snprintf(buf, sizeof(buf), "%.3f", (end_nanos - begin_nanos) / 1000.0);
  *out += ",\"dur\":";
  *out += buf;
  *out += ",\"args\":{\"task\":";
  *out += StrCat(s.task_id);
  *out += ",\"backend\":\"";
  *out += s.backend == 0 ? "cpu" : "gpu";
  *out += "\",\"bytes\":";
  *out += StrCat(s.bytes);
  *out += "}}";
}

void AppendJsonString(std::string* out, const std::string& v) {
  *out += '"';
  for (char c : v) {
    if (c == '"' || c == '\\') {
      *out += '\\';
      *out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      *out += buf;
    } else {
      *out += c;
    }
  }
  *out += '"';
}

}  // namespace

std::string RenderChromeTrace(
    const std::vector<TaskSpan>& spans,
    const std::vector<std::pair<std::string, std::string>>& meta) {
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  for (const TaskSpan& s : spans) {
    AppendEvent(&out, &first, s, "insert", s.insert_nanos, s.create_nanos);
    AppendEvent(&out, &first, s, "dispatch", s.create_nanos, s.queued_nanos);
    AppendEvent(&out, &first, s, "queue-wait", s.queued_nanos, s.select_nanos);
    AppendEvent(&out, &first, s, "execute", s.select_nanos, s.exec_end_nanos);
    AppendEvent(&out, &first, s, "assembly", s.exec_end_nanos,
                s.sink_begin_nanos);
    AppendEvent(&out, &first, s, "sink", s.sink_begin_nanos, s.done_nanos);
  }
  out += "\n],\"displayTimeUnit\":\"ms\"";
  for (const auto& [key, value] : meta) {
    out += ',';
    AppendJsonString(&out, key);
    out += ':';
    AppendJsonString(&out, value);
  }
  out += "}\n";
  return out;
}

bool WriteChromeTraceFile(const TraceRing* ring, const std::string& path) {
  std::vector<TaskSpan> spans;
  std::vector<std::pair<std::string, std::string>> meta;
  if (ring != nullptr) {
    spans = ring->Drain();
    meta.emplace_back("sampleRate", StrCat(ring->sample_rate()));
    meta.emplace_back("spansRetained", StrCat(spans.size()));
    meta.emplace_back("spansTotal", StrCat(ring->total_pushed()));
  }
  const std::string json = RenderChromeTrace(spans, meta);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool ok = std::fclose(f) == 0 && written == json.size();
  return ok;
}

}  // namespace saber::obs
