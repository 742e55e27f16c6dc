#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

/// \file util.h
/// Small helpers shared by the perfbench load generator: order statistics,
/// the chunked result digest the correctness oracle compares, and the
/// Prometheus text parser for /metrics scrapes.

namespace perfbench {

/// Nearest-rank percentile (q in [0,1]) of `v`; 0 for an empty sample.
inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

inline double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

/// A value observed `count` times.
struct Weighted {
  double value = 0;
  int64_t count = 0;
};

/// Nearest-rank percentile over weighted values; 0 for an empty sample.
inline double Percentile(std::vector<Weighted> v, double q) {
  int64_t total = 0;
  for (const Weighted& x : v) total += x.count;
  if (total == 0) return 0.0;
  std::sort(v.begin(), v.end(), [](const Weighted& a, const Weighted& b) {
    return a.value < b.value;
  });
  const int64_t rank = std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(q * static_cast<double>(total))));
  int64_t seen = 0;
  for (const Weighted& x : v) {
    seen += x.count;
    if (seen >= rank) return x.value;
  }
  return v.back().value;
}

inline int64_t TotalCount(const std::vector<Weighted>& v) {
  int64_t total = 0;
  for (const Weighted& x : v) total += x.count;
  return total;
}

/// Streams whole result rows into per-chunk 64-bit digests: one digest per
/// `rows_per_chunk` rows, the last chunk possibly short. Row bytes are mixed
/// a word at a time, so hashing keeps pace with a loopback result stream.
class ChunkDigester {
 public:
  ChunkDigester(size_t row_bytes, size_t rows_per_chunk)
      : row_bytes_(row_bytes), rows_per_chunk_(rows_per_chunk) {}

  void Add(const uint8_t* p, size_t bytes) {
    for (size_t off = 0; off + row_bytes_ <= bytes; off += row_bytes_) {
      AddRow(p + off);
    }
  }

  /// Closes the trailing partial chunk and returns every digest.
  std::vector<uint64_t> Finish() {
    if (rows_in_chunk_ > 0) Close();
    return std::move(digests_);
  }

  int64_t rows() const { return rows_; }

 private:
  void AddRow(const uint8_t* row) {
    size_t i = 0;
    for (; i + 8 <= row_bytes_; i += 8) {
      uint64_t w;
      std::memcpy(&w, row + i, 8);
      Mix(w);
    }
    if (i < row_bytes_) {
      uint64_t w = 0;
      std::memcpy(&w, row + i, row_bytes_ - i);
      Mix(w);
    }
    ++rows_;
    if (++rows_in_chunk_ == rows_per_chunk_) Close();
  }
  void Mix(uint64_t w) {
    h_ = (h_ ^ w) * 0x9E3779B97F4A7C15ULL;
    h_ ^= h_ >> 29;
  }
  void Close() {
    digests_.push_back(h_ ^ rows_in_chunk_);
    h_ = kSeed;
    rows_in_chunk_ = 0;
  }

  static constexpr uint64_t kSeed = 0xcbf29ce484222325ULL;
  size_t row_bytes_;
  size_t rows_per_chunk_;
  uint64_t h_ = kSeed;
  size_t rows_in_chunk_ = 0;
  int64_t rows_ = 0;
  std::vector<uint64_t> digests_;
};

/// Result rows that are missing, extra or wrong against the oracle. A chunk
/// whose digest differs counts all of its rows as wrong.
struct Verdict {
  int64_t expected = 0;
  int64_t missing = 0;
  int64_t extra = 0;
  int64_t wrong = 0;
  int64_t failures() const { return missing + extra + wrong; }
};

inline Verdict CompareDigests(const std::vector<uint64_t>& got, int64_t got_rows,
                              const std::vector<uint64_t>& want,
                              int64_t want_rows, int64_t rows_per_chunk) {
  Verdict v;
  v.expected = want_rows;
  v.missing = std::max<int64_t>(0, want_rows - got_rows);
  v.extra = std::max<int64_t>(0, got_rows - want_rows);
  const size_t common = std::min(got.size(), want.size());
  for (size_t c = 0; c < common; ++c) {
    if (got[c] == want[c]) continue;
    const int64_t begin = static_cast<int64_t>(c) * rows_per_chunk;
    v.wrong += std::min(rows_per_chunk, std::min(got_rows, want_rows) - begin);
  }
  return v;
}

/// One /metrics scrape: every sample summed per metric name, plus the sums
/// split by the value of a `processor` label where one is present.
struct Scrape {
  std::map<std::string, double> sum;
  std::map<std::string, double> by_processor;  ///< "<name>|<processor>"

  double Get(const std::string& name) const {
    auto it = sum.find(name);
    return it == sum.end() ? 0.0 : it->second;
  }
  double GetProcessor(const std::string& name, const std::string& p) const {
    auto it = by_processor.find(name + "|" + p);
    return it == by_processor.end() ? 0.0 : it->second;
  }
};

/// Parses a Prometheus text exposition body (comments skipped).
inline Scrape ParseExposition(const std::string& body) {
  Scrape s;
  size_t pos = 0;
  while (pos < body.size()) {
    size_t eol = body.find('\n', pos);
    if (eol == std::string::npos) eol = body.size();
    const std::string line = body.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    const size_t brace = line.find('{');
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    const size_t name_end = std::min(brace, line.find(' '));
    const std::string name = line.substr(0, name_end);
    const double value = std::strtod(line.c_str() + space + 1, nullptr);
    s.sum[name] += value;
    if (brace != std::string::npos) {
      const size_t p = line.find("processor=\"", brace);
      if (p != std::string::npos && p < space) {
        const size_t b = p + 11;
        const size_t e = line.find('"', b);
        s.by_processor[name + "|" + line.substr(b, e - b)] += value;
      }
    }
  }
  return s;
}

}  // namespace perfbench
