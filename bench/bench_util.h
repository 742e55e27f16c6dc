#pragma once

#include <cinttypes>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "runtime/clock.h"
#include "runtime/strcat.h"

/// \file bench_util.h
/// Shared harness for the figure-reproduction benchmarks. Each bench binary
/// regenerates one table/figure of §6: it sweeps the paper's parameter,
/// feeds generated streams through the engine (or a baseline), and prints
/// the measured series in a paper-style table. EXPERIMENTS.md records the
/// measured shapes against the published ones.

namespace saber::bench {

/// Engine configuration used across figures unless a figure sweeps it.
/// 8 CPU workers + the simulated GPGPU (6 executors, 8 GB/s PCIe, 4-deep
/// pipeline) roughly mirrors the paper's 16-core + K5200 box at our scale.
inline EngineOptions DefaultOptions(int cpu_workers = 8, bool use_gpu = true,
                                    size_t task_size = 1 << 20) {
  EngineOptions o;
  o.num_cpu_workers = cpu_workers;
  o.use_gpu = use_gpu;
  o.task_size = task_size;
  o.input_buffer_size = size_t{128} << 20;
  o.device.num_executors = 6;
  o.device.pipeline_depth = 4;
  o.device.pace_transfers = true;
  o.switch_threshold = 20;
  return o;
}

struct RunResult {
  double seconds = 0;
  int64_t bytes_in = 0;
  int64_t tuples_in = 0;
  int64_t rows_out = 0;
  int64_t cpu_bytes = 0;
  int64_t gpu_bytes = 0;
  int64_t cpu_tasks = 0;
  int64_t gpu_tasks = 0;
  int64_t p50_latency_us = 0;
  int64_t p99_latency_us = 0;

  double gbps() const { return seconds > 0 ? bytes_in / seconds / (1 << 30) : 0; }
  double mtuples() const { return seconds > 0 ? tuples_in / seconds / 1e6 : 0; }
  double gpu_share() const {
    const int64_t total = cpu_bytes + gpu_bytes;
    return total > 0 ? static_cast<double>(gpu_bytes) / total : 0;
  }
};

/// Feeds `repeats` time-shifted copies of `data` into one query input.
/// Count-based queries ignore timestamps; time-based queries see a
/// continuous, monotone stream (each repetition is shifted by the block's
/// time span).
class StreamFeeder {
 public:
  StreamFeeder(const Schema& schema, const std::vector<uint8_t>& data)
      : schema_(schema), data_(data), tsz_(schema.tuple_size()) {
    const size_t n = data.size() / tsz_;
    first_ts_ = n > 0 ? Ts(0) : 0;
    last_ts_ = n > 0 ? Ts(n - 1) : 0;
    span_ = last_ts_ - first_ts_ + 1;
  }

  /// `shift_timestamps` keeps repeated feeds time-monotone (required for
  /// time-based windows and joins); count-based queries ignore timestamps,
  /// so callers disable the shift to keep the producer at memcpy speed.
  void Feed(QueryHandle* q, int input, int repeats,
            bool shift_timestamps = true, size_t chunk_tuples = 16384) {
    std::vector<uint8_t> shifted(chunk_tuples * tsz_);
    const size_t n = data_.size() / tsz_;
    for (int rep = 0; rep < repeats; ++rep) {
      const int64_t offset = shift_timestamps ? span_ * rep : 0;
      for (size_t i = 0; i < n; i += chunk_tuples) {
        const size_t m = std::min(chunk_tuples, n - i);
        if (offset == 0) {
          q->InsertInto(input, data_.data() + i * tsz_, m * tsz_);
          continue;
        }
        std::memcpy(shifted.data(), data_.data() + i * tsz_, m * tsz_);
        for (size_t k = 0; k < m; ++k) {
          int64_t ts;
          std::memcpy(&ts, shifted.data() + k * tsz_, sizeof(ts));
          ts += offset;
          std::memcpy(shifted.data() + k * tsz_, &ts, sizeof(ts));
        }
        q->InsertInto(input, shifted.data(), m * tsz_);
      }
    }
  }

 private:
  int64_t Ts(size_t i) const {
    int64_t ts;
    std::memcpy(&ts, data_.data() + i * tsz_, sizeof(ts));
    return ts;
  }

  const Schema& schema_;
  const std::vector<uint8_t>& data_;
  size_t tsz_;
  int64_t first_ts_, last_ts_, span_;
};

inline RunResult Collect(QueryHandle* q, double seconds) {
  RunResult r;
  r.seconds = seconds;
  r.bytes_in = q->bytes_in();
  r.tuples_in = q->tuples_in();
  r.rows_out = q->rows_out();
  r.cpu_bytes = q->bytes_on(Processor::kCpu);
  r.gpu_bytes = q->bytes_on(Processor::kGpu);
  r.cpu_tasks = q->tasks_on(Processor::kCpu);
  r.gpu_tasks = q->tasks_on(Processor::kGpu);
  r.p50_latency_us = q->latency().Percentile(50) / 1000;
  r.p99_latency_us = q->latency().Percentile(99) / 1000;
  return r;
}

/// Runs one single-input query to completion over `repeats` copies of
/// `data`.
inline RunResult RunSaber(const EngineOptions& options, QueryDef def,
                          const std::vector<uint8_t>& data, int repeats = 1) {
  Engine engine(options);
  QueryHandle* q = engine.AddQuery(std::move(def));
  engine.Start();
  StreamFeeder feeder(q->def().input_schema[0], data);
  const bool shift = q->def().window[0].time_based();
  Stopwatch wall;
  feeder.Feed(q, 0, repeats, shift);
  engine.Drain();
  return Collect(q, wall.ElapsedSeconds());
}

/// Runs a two-input join query; both streams are fed in interleaved chunks
/// so timestamp cuts keep forming.
inline RunResult RunSaberJoin(const EngineOptions& options, QueryDef def,
                              const std::vector<uint8_t>& left,
                              const std::vector<uint8_t>& right,
                              int repeats = 1) {
  Engine engine(options);
  QueryHandle* q = engine.AddQuery(std::move(def));
  engine.Start();
  const Schema& ls = q->def().input_schema[0];
  const Schema& rs = q->def().input_schema[1];
  const size_t ltsz = ls.tuple_size(), rtsz = rs.tuple_size();
  Stopwatch wall;
  const size_t chunk = 8192;
  const size_t nl = left.size() / ltsz, nr = right.size() / rtsz;
  for (int rep = 0; rep < repeats; ++rep) {
    // The generators produce identical timestamp layouts for both streams,
    // so chunk-interleaving keeps the dispatcher's cut moving.
    size_t il = 0, ir = 0;
    StreamFeeder lf(ls, left), rf(rs, right);
    (void)lf;
    (void)rf;
    while (il < nl || ir < nr) {
      if (il < nl) {
        const size_t m = std::min(chunk, nl - il);
        q->InsertInto(0, left.data() + il * ltsz, m * ltsz);
        il += m;
      }
      if (ir < nr) {
        const size_t m = std::min(chunk, nr - ir);
        q->InsertInto(1, right.data() + ir * rtsz, m * rtsz);
        ir += m;
      }
    }
    if (repeats > 1) break;  // joins use single-pass data (monotone time)
  }
  engine.Drain();
  RunResult r = Collect(q, wall.ElapsedSeconds());
  return r;
}

/// Paper-style table row printing.
inline void PrintHeader(const std::string& title,
                        const std::vector<std::string>& columns) {
  std::printf("\n=== %s ===\n", title.c_str());
  for (const auto& c : columns) std::printf("%16s", c.c_str());
  std::printf("\n");
  for (size_t i = 0; i < columns.size(); ++i) std::printf("%16s", "---------");
  std::printf("\n");
}

inline void PrintCell(double v) { std::printf("%16.3f", v); }
inline void PrintCell(const std::string& s) { std::printf("%16s", s.c_str()); }
inline void EndRow() { std::printf("\n"); }

// ---------------------------------------------------------------------------
// Machine-readable emission: benchmarks that feed the perf trajectory write
// a flat JSON document (BENCH_<name>.json) that CI publishes as an artifact.
// ---------------------------------------------------------------------------

/// An ordered flat JSON object (string / integer / double fields only —
/// enough for benchmark records without pulling in a JSON library).
class JsonObject {
 public:
  JsonObject& Str(const std::string& key, const std::string& v) {
    fields_.emplace_back(key, StrCat("\"", Escape(v), "\""));
    return *this;
  }
  JsonObject& Int(const std::string& key, int64_t v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRId64, v);
    fields_.emplace_back(key, buf);
    return *this;
  }
  JsonObject& Num(const std::string& key, double v) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    fields_.emplace_back(key, buf);
    return *this;
  }
  JsonObject& Bool(const std::string& key, bool v) {
    fields_.emplace_back(key, v ? "true" : "false");
    return *this;
  }

  std::string Render() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      StrAppend(out, StrCat("\"", Escape(fields_[i].first), "\": "));
      out += fields_[i].second;
    }
    out += "}";
    return out;
  }

  static std::string Escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out.push_back('\\');
        out.push_back(c);
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x",
                      static_cast<unsigned>(static_cast<unsigned char>(c)));
        out += buf;
      } else {
        out.push_back(c);
      }
    }
    return out;
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Writes {"bench": name, <meta fields>, "results": [...]} to `path`.
/// Returns false (and prints to stderr) on I/O failure.
inline bool WriteBenchJson(const std::string& path, const std::string& name,
                           const JsonObject& meta,
                           const std::vector<JsonObject>& results) {
  std::string doc = StrCat("{\"bench\": \"", JsonObject::Escape(name), "\"");
  const std::string meta_body = meta.Render();
  if (meta_body.size() > 2) {  // not the empty object
    doc += ", ";
    doc += meta_body.substr(1, meta_body.size() - 2);
  }
  doc += ", \"results\": [";
  for (size_t i = 0; i < results.size(); ++i) {
    if (i > 0) doc += ", ";
    doc += results[i].Render();
  }
  doc += "]}\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  std::fclose(f);
  if (ok) std::printf("wrote %s\n", path.c_str());
  return ok;
}

}  // namespace saber::bench
