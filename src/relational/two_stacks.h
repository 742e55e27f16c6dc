#pragma once

#include <cstdint>
#include <vector>

#include "relational/aggregate.h"
#include "runtime/status.h"

/// \file two_stacks.h
/// Two-stacks sliding-window aggregation in the style of general incremental
/// sliding-window aggregation [50] (Tangwongsan et al., PVLDB 2015). SABER's
/// assembly stage slides windows over *pane partials* (fragment_assembly.cc).
/// Subtracting expiring panes works only for invertible functions, and even
/// for a float sum it drifts once a large value has passed through the
/// window. This structure gives amortized O(1) merges per pane for any
/// associative aggregate without ever subtracting:
///
///   - new pane partials are pushed onto a *back* stack that maintains a
///     running prefix aggregate;
///   - expiring panes are popped from a *front* stack whose entries carry
///     precomputed suffix aggregates;
///   - when the front stack runs dry, the back stack is flipped onto it,
///     computing the suffix aggregates during the flip (each pane is flipped
///     exactly once, hence amortized O(1));
///   - the window aggregate is front-suffix ⊕ back-prefix.
///
/// Entries are keyed by pane index so the sparse pane sequences produced by
/// time-based windows (absent panes are aggregation identities) cost nothing.

namespace saber {

class TwoStacksAggregator {
 public:
  /// `num_aggs` parallel aggregate columns per pane (matches PaneFormat).
  explicit TwoStacksAggregator(size_t num_aggs) : num_aggs_(num_aggs) {
    Clear();
  }

  void Clear() {
    front_panes_.clear();
    front_suffix_.clear();
    back_panes_.clear();
    back_raw_.clear();
    back_agg_.assign(num_aggs_, AggState{});
    for (auto& s : back_agg_) AggInit(&s);
    last_pushed_ = -1;
  }

  bool empty() const { return front_panes_.empty() && back_panes_.empty(); }

  /// Index of the most recently pushed pane, -1 if none since Clear().
  int64_t last_pushed() const { return last_pushed_; }

  /// Appends the final partial aggregates of pane `pane_index`. Pane indices
  /// must be strictly increasing between Clear() calls.
  void Push(int64_t pane_index, const AggState* states) {
    SABER_DCHECK(pane_index > last_pushed_);
    if (back_panes_.empty()) {
      for (size_t a = 0; a < num_aggs_; ++a) back_agg_[a] = states[a];
    } else {
      for (size_t a = 0; a < num_aggs_; ++a) AggMerge(&back_agg_[a], states[a]);
    }
    back_panes_.push_back(pane_index);
    back_raw_.insert(back_raw_.end(), states, states + num_aggs_);
    last_pushed_ = pane_index;
  }

  /// Removes every pane with index < min_pane (amortized O(1) per pane).
  void EvictBefore(int64_t min_pane) {
    for (;;) {
      if (front_panes_.empty()) {
        if (back_panes_.empty() || back_panes_.front() >= min_pane) return;
        Flip();
      }
      // Front top (oldest pane) sits at the back of the vectors.
      while (!front_panes_.empty() && front_panes_.back() < min_pane) {
        front_panes_.pop_back();
        front_suffix_.resize(front_suffix_.size() - num_aggs_);
      }
      if (!front_panes_.empty()) return;
      if (back_panes_.empty() || back_panes_.front() >= min_pane) return;
    }
  }

  /// Merges the aggregate over all live panes into out[0..num_aggs). `out`
  /// must be AggInit'd by the caller (the result is the identity when empty).
  void Query(AggState* out) const {
    if (!front_panes_.empty()) {
      const AggState* suffix = front_suffix_.data() +
                               (front_panes_.size() - 1) * num_aggs_;
      for (size_t a = 0; a < num_aggs_; ++a) AggMerge(&out[a], suffix[a]);
    }
    if (!back_panes_.empty()) {
      for (size_t a = 0; a < num_aggs_; ++a) AggMerge(&out[a], back_agg_[a]);
    }
  }

  size_t live_panes() const { return front_panes_.size() + back_panes_.size(); }

 private:
  /// Moves the back stack onto the front stack, oldest pane ending on top
  /// (= back of the vector), computing suffix aggregates during the flip:
  /// entry i (arrival order) stores x_i ⊕ x_{i+1} ⊕ … ⊕ x_k, so the front
  /// top always carries the aggregate of every flipped pane at or after it.
  void Flip() {
    const size_t k = back_panes_.size();
    if (k == 0) return;
    SABER_DCHECK(front_panes_.empty());
    front_panes_.reserve(k);
    front_suffix_.reserve(k * num_aggs_);
    std::vector<AggState> suffix(num_aggs_);
    for (size_t a = 0; a < num_aggs_; ++a) AggInit(&suffix[a]);
    for (size_t i = k; i-- > 0;) {  // youngest first → oldest lands on top
      const AggState* raw = back_raw_.data() + i * num_aggs_;
      for (size_t a = 0; a < num_aggs_; ++a) {
        // suffix = x_i ⊕ old_suffix keeps left-to-right arrival order for
        // associative but non-commutative merges.
        AggState next = raw[a];
        AggMerge(&next, suffix[a]);
        suffix[a] = next;
      }
      front_panes_.push_back(back_panes_[i]);
      front_suffix_.insert(front_suffix_.end(), suffix.begin(), suffix.end());
    }
    back_panes_.clear();
    back_raw_.clear();
    for (auto& s : back_agg_) AggInit(&s);
  }

  size_t num_aggs_;
  // Front stack: top at the back of the vectors; entry i stores the suffix
  // aggregate over itself and every entry flipped before it.
  std::vector<int64_t> front_panes_;
  std::vector<AggState> front_suffix_;  // stride num_aggs_
  // Back stack in arrival order plus its running prefix aggregate.
  std::vector<int64_t> back_panes_;
  std::vector<AggState> back_raw_;  // stride num_aggs_
  std::vector<AggState> back_agg_;
  int64_t last_pushed_ = -1;
};

}  // namespace saber
