#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "runtime/status.h"
#include "runtime/strcat.h"

namespace saber::obs {

int64_t Histogram::BucketUpperBound(size_t i) {
  if (i < kSubBuckets) return static_cast<int64_t>(i);
  const size_t octave = i / kSubBuckets;
  const size_t sub = i % kSubBuckets;
  // Inverse of BucketIndex: the bucket holds values in
  // [(16+sub) << (octave-1), (16+sub+1) << (octave-1)), so its largest
  // value is one below the next bucket's base.
  return static_cast<int64_t>(((kSubBuckets + sub + 1) << (octave - 1)) - 1);
}

int64_t Histogram::count() const {
  int64_t total = 0;
  for (const auto& c : counts_) total += c.load(std::memory_order_relaxed);
  return total;
}

int64_t Histogram::Percentile(double p) const {
  std::vector<int64_t> counts(kNumBuckets);
  for (size_t i = 0; i < kNumBuckets; ++i) counts[i] = bucket_count(i);
  return Percentile(counts, max(), p);
}

int64_t Histogram::Percentile(const std::vector<int64_t>& bucket_counts,
                              int64_t max, double p) {
  int64_t total = 0;
  for (int64_t c : bucket_counts) total += c;
  if (total == 0) return 0;
  int64_t rank = static_cast<int64_t>(std::ceil(p / 100.0 * total));
  if (rank < 1) rank = 1;
  int64_t seen = 0;
  for (size_t i = 0; i < bucket_counts.size(); ++i) {
    seen += bucket_counts[i];
    if (seen >= rank) return std::min(BucketUpperBound(i), max);
  }
  return max;
}

MetricsRegistry::Family* MetricsRegistry::GetFamilyLocked(
    std::string_view name, MetricType type, std::string_view help) {
  auto it = families_.find(name);
  if (it == families_.end()) {
    Family f;
    f.type = type;
    f.help = std::string(help);
    it = families_.emplace(std::string(name), std::move(f)).first;
  } else {
    SABER_CHECK(it->second.type == type);  // name ↔ type is a global contract
    if (it->second.help.empty() && !help.empty()) {
      it->second.help = std::string(help);
    }
  }
  return &it->second;
}

MetricsRegistry::Series* MetricsRegistry::GetSeriesLocked(Family* family,
                                                          Labels&& labels) {
  for (Series& s : family->series) {
    if (s.labels == labels) return &s;
  }
  Series s;
  s.labels = std::move(labels);
  family->series.push_back(std::move(s));
  return &family->series.back();
}

Counter* MetricsRegistry::GetCounter(std::string_view name, Labels labels,
                                     std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  Family* f = GetFamilyLocked(name, MetricType::kCounter, help);
  Series* s = GetSeriesLocked(f, std::move(labels));
  SABER_CHECK(s->ext_counter == nullptr);  // already an external view
  if (!s->counter) s->counter = std::make_unique<Counter>();
  return s->counter.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name, Labels labels,
                                 std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  Family* f = GetFamilyLocked(name, MetricType::kGauge, help);
  Series* s = GetSeriesLocked(f, std::move(labels));
  SABER_CHECK(s->ext_gauge == nullptr);
  if (!s->gauge) s->gauge = std::make_unique<Gauge>();
  return s->gauge.get();
}

void MetricsRegistry::RegisterCounter(std::string_view name, Labels labels,
                                      const Counter* c, const void* owner,
                                      std::string_view help) {
  SABER_CHECK(c != nullptr && owner != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  Family* f = GetFamilyLocked(name, MetricType::kCounter, help);
  Series* s = GetSeriesLocked(f, std::move(labels));
  SABER_CHECK(!s->counter);  // owned and external views must not collide
  s->ext_counter = c;
  s->owner = owner;
}

void MetricsRegistry::RegisterGauge(std::string_view name, Labels labels,
                                    const Gauge* g, const void* owner,
                                    std::string_view help) {
  SABER_CHECK(g != nullptr && owner != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  Family* f = GetFamilyLocked(name, MetricType::kGauge, help);
  Series* s = GetSeriesLocked(f, std::move(labels));
  SABER_CHECK(!s->gauge);
  s->ext_gauge = g;
  s->owner = owner;
}

void MetricsRegistry::RegisterHistogram(std::string_view name, Labels labels,
                                        const Histogram* h, const void* owner,
                                        std::string_view help) {
  SABER_CHECK(h != nullptr && owner != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  Family* f = GetFamilyLocked(name, MetricType::kHistogram, help);
  Series* s = GetSeriesLocked(f, std::move(labels));
  s->ext_histogram = h;
  s->owner = owner;
}

void MetricsRegistry::Unregister(const void* owner) {
  if (owner == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [name, family] : families_) {
      auto& v = family.series;
      v.erase(std::remove_if(v.begin(), v.end(),
                             [owner](const Series& s) {
                               return s.owner == owner;
                             }),
              v.end());
    }
  }
  std::lock_guard<std::mutex> lock(collectors_mu_);
  collectors_.erase(std::remove_if(collectors_.begin(), collectors_.end(),
                                   [owner](const CollectorEntry& e) {
                                     return e.owner == owner;
                                   }),
                    collectors_.end());
}

void MetricsRegistry::AddCollector(std::function<void()> fn,
                                   const void* owner) {
  std::lock_guard<std::mutex> lock(collectors_mu_);
  collectors_.push_back(CollectorEntry{std::move(fn), owner});
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  {
    // Collectors may register instruments, so they run outside mu_.
    std::lock_guard<std::mutex> lock(collectors_mu_);
    for (const auto& entry : collectors_) entry.fn();
  }
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  snap.families.reserve(families_.size());
  for (const auto& [name, family] : families_) {
    FamilySnapshot fs;
    fs.name = name;
    fs.help = family.help;
    fs.type = family.type;
    fs.series.resize(family.series.size());
    // The single pass of the consistency contract: every atomic of this
    // family is loaded exactly once, back to back, with the labels copied
    // only after the values are read.
    for (size_t i = 0; i < family.series.size(); ++i) {
      const Series& s = family.series[i];
      SeriesSnapshot& out = fs.series[i];
      switch (family.type) {
        case MetricType::kCounter:
          out.counter_value =
              s.counter ? s.counter->value() : s.ext_counter->value();
          break;
        case MetricType::kGauge:
          out.gauge_value = s.gauge ? s.gauge->value() : s.ext_gauge->value();
          break;
        case MetricType::kHistogram: {
          const Histogram* h = s.ext_histogram;
          out.bucket_counts.resize(Histogram::kNumBuckets);
          for (size_t b = 0; b < Histogram::kNumBuckets; ++b) {
            out.bucket_counts[b] = h->bucket_count(b);
          }
          out.sum = h->sum();
          out.max = h->max();
          for (int64_t c : out.bucket_counts) out.count += c;
          break;
        }
      }
    }
    for (size_t i = 0; i < family.series.size(); ++i) {
      fs.series[i].labels = family.series[i].labels;
    }
    snap.families.push_back(std::move(fs));
  }
  return snap;
}

namespace {

/// Label-value escaping per the text format: backslash, double quote, LF.
void AppendEscaped(std::string* out, const std::string& v) {
  for (char c : v) {
    if (c == '\\') {
      *out += "\\\\";
    } else if (c == '"') {
      *out += "\\\"";
    } else if (c == '\n') {
      *out += "\\n";
    } else {
      *out += c;
    }
  }
}

void AppendLabels(std::string* out, const Labels& labels,
                  const std::string* extra_key = nullptr,
                  const std::string* extra_value = nullptr) {
  if (labels.empty() && extra_key == nullptr) return;
  *out += '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) *out += ',';
    first = false;
    *out += k;
    *out += "=\"";
    AppendEscaped(out, v);
    *out += '"';
  }
  if (extra_key != nullptr) {
    if (!first) *out += ',';
    *out += *extra_key;
    *out += "=\"";
    AppendEscaped(out, *extra_value);
    *out += '"';
  }
  *out += '}';
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// The exposition's histogram buckets: one `le` per octave edge 2^k - 1
/// for k in [kFirstExpositionOctave, kLastExpositionOctave] (65.5 µs ..
/// 8.6 s in nanoseconds).
constexpr int kFirstExpositionOctave = 16;
constexpr int kLastExpositionOctave = 33;

const char* TypeName(MetricType t) {
  switch (t) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "untyped";
}

}  // namespace

std::string RenderPrometheusText(const MetricsSnapshot& snapshot) {
  std::string out;
  static const std::string kLe = "le";
  static const std::string kInf = "+Inf";
  for (const FamilySnapshot& f : snapshot.families) {
    if (f.series.empty()) continue;
    if (!f.help.empty()) {
      out += "# HELP ";
      out += f.name;
      out += ' ';
      // HELP text escaping: backslash and LF only (no quotes involved).
      for (char c : f.help) {
        if (c == '\\') {
          out += "\\\\";
        } else if (c == '\n') {
          out += "\\n";
        } else {
          out += c;
        }
      }
      out += '\n';
    }
    out += "# TYPE ";
    out += f.name;
    out += ' ';
    out += TypeName(f.type);
    out += '\n';
    for (const SeriesSnapshot& s : f.series) {
      switch (f.type) {
        case MetricType::kCounter:
          out += f.name;
          AppendLabels(&out, s.labels);
          out += ' ';
          out += StrCat(s.counter_value);
          out += '\n';
          break;
        case MetricType::kGauge:
          out += f.name;
          AppendLabels(&out, s.labels);
          out += ' ';
          out += FormatDouble(s.gauge_value);
          out += '\n';
          break;
        case MetricType::kHistogram: {
          // Cumulative count of the fine buckets below `end`, as `le`.
          int64_t cumulative = 0;
          size_t b = 0;
          auto bucket_line = [&](size_t end, const std::string& le) {
            for (; b < end; ++b) cumulative += s.bucket_counts[b];
            out += f.name;
            out += "_bucket";
            AppendLabels(&out, s.labels, &kLe, &le);
            out += ' ';
            out += StrCat(cumulative);
            out += '\n';
          };
          for (int k = kFirstExpositionOctave; k <= kLastExpositionOctave;
               ++k) {
            // 2^k opens a bucket, so the buckets below it hold exactly the
            // values <= 2^k - 1.
            bucket_line(Histogram::BucketIndex(uint64_t{1} << k),
                        StrCat((int64_t{1} << k) - 1));
          }
          bucket_line(s.bucket_counts.size(), kInf);
          out += f.name;
          out += "_sum";
          AppendLabels(&out, s.labels);
          out += ' ';
          out += StrCat(s.sum);
          out += '\n';
          out += f.name;
          out += "_count";
          AppendLabels(&out, s.labels);
          out += ' ';
          out += StrCat(cumulative);
          out += '\n';
          break;
        }
      }
    }
  }
  return out;
}

std::string FormatMetricsSummary(const MetricsSnapshot& snapshot,
                                 std::string_view line_prefix) {
  std::string out;
  for (const FamilySnapshot& f : snapshot.families) {
    bool any_nonzero = false;
    for (const SeriesSnapshot& s : f.series) {
      if ((f.type == MetricType::kCounter && s.counter_value != 0) ||
          (f.type == MetricType::kGauge && s.gauge_value != 0.0) ||
          (f.type == MetricType::kHistogram && s.count != 0)) {
        any_nonzero = true;
        break;
      }
    }
    if (!any_nonzero) continue;
    for (const SeriesSnapshot& s : f.series) {
      out += line_prefix;
      out += f.name;
      AppendLabels(&out, s.labels);
      out += ' ';
      switch (f.type) {
        case MetricType::kCounter:
          out += StrCat(s.counter_value);
          break;
        case MetricType::kGauge:
          out += FormatDouble(s.gauge_value);
          break;
        case MetricType::kHistogram:
          out += StrCat("count=", s.count, " p50=",
                        Histogram::Percentile(s.bucket_counts, s.max, 50),
                        " p99=",
                        Histogram::Percentile(s.bucket_counts, s.max, 99));
          break;
      }
      out += '\n';
    }
  }
  return out;
}

}  // namespace saber::obs
