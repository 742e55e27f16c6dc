#pragma once

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "relational/expression.h"

/// \file aggregate.h
/// Aggregate functions (§2.4, §5.3). The engine computes partial aggregates
/// per *window fragment* and later merges them in the assembly operator
/// function, so every function is expressed over a mergeable POD state.
/// §5.3 also inverts sum/count/avg to slide a window; this engine does not:
/// subtracting an expiring pane from a float sum drifts once a large value
/// has passed through the window, so sliding windows use two-stacks
/// (two_stacks.h), which only merges.

namespace saber {

enum class AggregateFunction : uint8_t { kCount, kSum, kAvg, kMin, kMax };

inline const char* AggregateName(AggregateFunction f) {
  switch (f) {
    case AggregateFunction::kCount: return "cnt";
    case AggregateFunction::kSum: return "sum";
    case AggregateFunction::kAvg: return "avg";
    case AggregateFunction::kMin: return "min";
    case AggregateFunction::kMax: return "max";
  }
  return "?";
}

/// One aggregate column in a query: `fn(input) AS name`. For kCount the
/// input expression may be null.
struct AggregateSpec {
  AggregateFunction fn;
  ExprPtr input;  // null for count(*)
  std::string name;
};

/// Mergeable partial-aggregate state. A single POD layout serves all five
/// functions so fragment results can be memcpy'd between buffers and across
/// the simulated PCIe bus.
struct AggState {
  double sum;
  int64_t count;
  double min_v;
  double max_v;
};
static_assert(sizeof(AggState) == 32);

inline void AggInit(AggState* s) {
  s->sum = 0.0;
  s->count = 0;
  s->min_v = std::numeric_limits<double>::infinity();
  s->max_v = -std::numeric_limits<double>::infinity();
}

inline void AggAdd(AggState* s, double v) {
  s->sum += v;
  s->count += 1;
  s->min_v = std::min(s->min_v, v);
  s->max_v = std::max(s->max_v, v);
}

inline void AggMerge(AggState* into, const AggState& from) {
  into->sum += from.sum;
  into->count += from.count;
  into->min_v = std::min(into->min_v, from.min_v);
  into->max_v = std::max(into->max_v, from.max_v);
}

inline double AggFinalize(AggregateFunction f, const AggState& s) {
  switch (f) {
    case AggregateFunction::kCount: return static_cast<double>(s.count);
    case AggregateFunction::kSum: return s.sum;
    case AggregateFunction::kAvg:
      return s.count == 0 ? 0.0 : s.sum / static_cast<double>(s.count);
    case AggregateFunction::kMin: return s.count == 0 ? 0.0 : s.min_v;
    case AggregateFunction::kMax: return s.count == 0 ? 0.0 : s.max_v;
  }
  return 0.0;
}

}  // namespace saber
