#pragma once

#include <algorithm>
#include <atomic>
#include <bitset>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "core/task.h"
#include "core/throughput_matrix.h"

/// \file schedulers.h
/// The system-wide query-task queue (§4, Fig. 4) and the scheduling policies
/// evaluated in §6.6:
///
///  - HlsScheduler — heterogeneous lookahead scheduling, Algorithm 1. Walks
///    the queue accumulating the preferred processor's outstanding work
///    (`delay`); selects a task for a non-preferred processor only when
///    running it there finishes earlier than waiting, or when the switch
///    threshold forces exploration.
///  - FcfsScheduler — "first-come, first-served": head of queue regardless
///    of processor.
///  - StaticScheduler — fixed query→processor assignment (the infeasible-
///    in-practice baseline of Fig. 15).
///
/// Policies run under the queue lock; the scan is bounded by a lookahead cap
/// to keep the critical section short on deep queues.
///
/// Wakeup protocol (event-driven, no timed re-polls): a policy may refuse
/// the current queue contents for a processor (HLS lookahead), so a worker
/// that found nothing blocks on its processor's condition variable and is
/// woken only when eligibility could have changed —
///
///   - Push notifies the processors in the policy's EligibleProcessors mask
///     for the new task (the queue prefix is untouched by an append, so no
///     other eligibility changes);
///   - a successful Select notifies everyone: it shifted the lookahead
///     window and mutated the switch counts (Alg. 1 lines 7-8), either of
///     which can make previously refused tasks eligible;
///   - the throughput matrix calls OnEligibilityChanged when it publishes
///     new rates (preferences may flip);
///   - Close wakes everybody for shutdown.
///
/// Failed scans additionally persist a per-processor ScanState — the "first
/// plausible position" hint — so that after an append the re-scan resumes at
/// the queue tail with the prefix's accumulated delay instead of walking the
/// whole queue again under the lock. Every event other than Push invalidates
/// the hints.

namespace saber {

/// Upper bound on concurrently registered query slots across the engine and
/// the schedulers (EngineOptions::max_queries must not exceed it). Sized so
/// per-slot scheduler state (weights, virtual service) stays a small fixed
/// array that Select can read lock-free.
inline constexpr size_t kMaxQuerySlots = 256;

/// Resumable scan state: positions [0, resume_pos) of the queue have been
/// proven ineligible for one processor under the current rates and switch
/// counts, with `resume_delay` the preferred-processor delay accumulated
/// over that prefix (Alg. 1 line 10) and `seen_queries` the queries with a
/// task in that prefix — a resumed scan may not select an appended task of
/// a query whose (refused) earlier task it skipped, or it would run the
/// query out of id order. Valid only between a failed scan and the next
/// eligibility mutation; appends are the only queue change that preserves
/// it.
struct ScanState {
  size_t resume_pos = 0;
  double resume_delay = 0.0;
  std::bitset<kMaxQuerySlots> seen_queries;
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;
  /// Selects and removes the task this worker should run, or nullptr if no
  /// eligible task exists. Called with the queue contents under lock. `scan`
  /// (optional) resumes a previously failed scan and is updated in place on
  /// failure.
  virtual QueryTask* Select(std::deque<QueryTask*>& queue, Processor p,
                            ThroughputMatrix& matrix,
                            ScanState* scan = nullptr) = 0;

  /// Which processors could plausibly select `task`, just appended to the
  /// queue tail. Used for targeted wakeups; over-approximation is safe
  /// (woken workers re-run Select), missing a processor is not. The default
  /// wakes everyone.
  virtual ProcessorMask EligibleProcessors(const QueryTask& task,
                                           bool queue_was_empty,
                                           const ThroughputMatrix& matrix) const {
    (void)task;
    (void)queue_was_empty;
    (void)matrix;
    return kAllProcessors;
  }

  /// Whether removing a task can make a previously refused task eligible
  /// for some processor. True for HLS (the selection mutates switch counts
  /// and shifts the lookahead window); FCFS and Static eligibility is
  /// per-task and fixed, so their removals need no broadcast. Defaults to
  /// true — the safe answer for policies that don't know.
  virtual bool RemovalChangesEligibility() const { return true; }

  /// Dynamic-topology hooks: the engine admits/retires queries while workers
  /// are inside Select, so implementations must tolerate a slot's weight
  /// changing between (never during) scans. Default: policy has no per-query
  /// state.
  virtual void SetQueryWeight(int query, double weight) {
    (void)query;
    (void)weight;
  }
  virtual void OnQueryRetired(int query) { (void)query; }
};

class FcfsScheduler final : public Scheduler {
 public:
  QueryTask* Select(std::deque<QueryTask*>& queue, Processor p,
                    ThroughputMatrix& matrix,
                    ScanState* scan = nullptr) override {
    // FCFS takes the first task this processor is *allowed* to run — the
    // head in the common case; failover-narrowed retries make the mask
    // meaningful. Per-task eligibility is fixed, so a refused prefix stays
    // refused and the scan resumes where it last stopped.
    size_t pos = scan == nullptr ? 0 : std::min(scan->resume_pos, queue.size());
    for (; pos < queue.size(); ++pos) {
      QueryTask* t = queue[pos];
      if (MaskHas(t->allowed, p)) {
        queue.erase(queue.begin() + static_cast<long>(pos));
        matrix.IncrementCount(t->query_index, p);
        return t;
      }
    }
    if (scan != nullptr) scan->resume_pos = pos;
    return nullptr;
  }

  ProcessorMask EligibleProcessors(const QueryTask& task, bool /*was_empty*/,
                                   const ThroughputMatrix& /*matrix*/)
      const override {
    return task.allowed;
  }

  bool RemovalChangesEligibility() const override { return false; }
};

class StaticScheduler final : public Scheduler {
 public:
  explicit StaticScheduler(std::map<int, Processor> assignment)
      : assignment_(std::move(assignment)) {}

  QueryTask* Select(std::deque<QueryTask*>& queue, Processor p,
                    ThroughputMatrix& matrix,
                    ScanState* scan = nullptr) override {
    // Assignment is fixed per query and the allowed mask per task, so a
    // previously refused prefix stays refused: resume where the last failed
    // scan stopped.
    size_t pos = scan == nullptr ? 0 : std::min(scan->resume_pos, queue.size());
    for (; pos < queue.size(); ++pos) {
      QueryTask* t = queue[pos];
      if (Eligible(*t, p)) {
        queue.erase(queue.begin() + static_cast<long>(pos));
        matrix.IncrementCount(t->query_index, p);
        return t;
      }
    }
    if (scan != nullptr) scan->resume_pos = pos;
    return nullptr;
  }

  ProcessorMask EligibleProcessors(const QueryTask& task, bool /*was_empty*/,
                                   const ThroughputMatrix& /*matrix*/)
      const override {
    const Processor a = Assigned(task.query_index);
    return MaskHas(task.allowed, a) ? ProcessorBit(a) : task.allowed;
  }

  bool RemovalChangesEligibility() const override { return false; }

 private:
  /// The assigned processor runs the task if the mask allows it; a task
  /// whose mask *excludes* its assignment (GPGPU failover retry under a
  /// GPGPU-assigned query) may run on any allowed processor — the
  /// alternative is a permanently stuck task.
  bool Eligible(const QueryTask& t, Processor p) const {
    if (!MaskHas(t.allowed, p)) return false;
    const Processor a = Assigned(t.query_index);
    return a == p || !MaskHas(t.allowed, a);
  }

  Processor Assigned(int query) const {
    auto a = assignment_.find(query);
    return a == assignment_.end() ? Processor::kCpu : a->second;
  }

  std::map<int, Processor> assignment_;
};

/// Algorithm 1 (§4.2), extended with weighted-fair tenant selection.
///
/// The original algorithm removes the *first* HLS-eligible task in scan
/// order, which lets one hot tenant that keeps the queue prefix full starve
/// the rest. This variant keeps Alg. 1's per-task eligibility test (lines
/// 4-6, delay accounting, switch threshold) unchanged but collects one
/// candidate per query — the query's earliest queued task, so each query's
/// tasks start in id order — and then picks the candidate whose tenant has
/// the least normalized virtual service (served bytes / weight), a
/// deficit-style discipline: a weight-8 query accrues service 8x more
/// slowly than a weight-1 query per byte, so it wins ~8x the selections
/// under contention. Ties (including the common all-zero startup state and
/// byte-less synthetic tasks) break toward the earliest queue position,
/// which makes the variant selection-identical to Alg. 1 whenever service
/// is balanced.
///
/// Queries may be admitted or retired between Select calls: per-slot weight
/// and service live in a fixed kMaxQuerySlots array, and a newly admitted
/// slot starts at the current service baseline (the least service observed
/// among recently queued tenants) so it neither monopolizes the queue to
/// "catch up" from zero nor starts in debt.
class HlsScheduler final : public Scheduler {
 public:
  /// `cpu_enabled`/`gpu_enabled` declare which processor types have workers:
  /// a task whose preferred processor has no workers is treated as
  /// preferring the asking processor, and the switch threshold (which exists
  /// to *observe the other processor*) is bypassed when there is no other
  /// processor — otherwise the head task starves in single-processor
  /// configurations.
  explicit HlsScheduler(int switch_threshold = 20, size_t lookahead_cap = 64,
                        bool cpu_enabled = true, bool gpu_enabled = true)
      : st_(switch_threshold),
        lookahead_cap_(lookahead_cap),
        shares_(new Share[kMaxQuerySlots]) {
    enabled_[static_cast<int>(Processor::kCpu)] = cpu_enabled;
    enabled_[static_cast<int>(Processor::kGpu)] = gpu_enabled;
  }

  QueryTask* Select(std::deque<QueryTask*>& queue, Processor p,
                    ThroughputMatrix& matrix,
                    ScanState* scan = nullptr) override {
    const Processor other =
        p == Processor::kCpu ? Processor::kGpu : Processor::kCpu;
    const bool have_other = enabled_[static_cast<int>(other)];
    double delay = scan == nullptr ? 0.0 : scan->resume_delay;  // line 2
    size_t pos = scan == nullptr ? 0 : std::min(scan->resume_pos, queue.size());
    const size_t limit = std::min(queue.size(), lookahead_cap_);
    QueryTask* best = nullptr;  // least-served candidate so far
    size_t best_pos = 0;
    Processor best_ppref = p;
    double best_norm = 0.0;
    double min_norm = 0.0;  // least service among candidate tenants
    // Queries with a task at an earlier position (including a resumed scan's
    // skipped prefix). Only a query's *earliest* queued task may be
    // selected. The dispatcher's gate, not this rule, keeps a query inside
    // its result-slot ring: a task is cut only once its slot is free, so a
    // later task selected past a refused earlier one (delay accrues between
    // positions, so the delay steal can qualify a position the head failed;
    // a resumed scan starts past the head entirely) would still store
    // without waiting. The rule keeps each query's tasks starting in id
    // order, which bounds the completed-but-unassembled results by the
    // tasks workers hold; dropping it also changes the GPGPU's share of a
    // lone query (ROADMAP item 2).
    std::bitset<kMaxQuerySlots> seen_query =
        scan == nullptr ? std::bitset<kMaxQuerySlots>{} : scan->seen_queries;
    for (; pos < limit; ++pos) {                            // line 3
      QueryTask* v = queue[pos];
      const int q = v->query_index;                         // line 4
      Processor ppref = matrix.Preferred(q);                // line 5
      if (!enabled_[static_cast<int>(ppref)]) ppref = p;
      // A failover-narrowed task prefers whatever its mask still allows
      // (two processors, so "not ppref" is the other one).
      if (!MaskHas(v->allowed, ppref)) {
        ppref = ppref == Processor::kCpu ? Processor::kGpu : Processor::kCpu;
      }
      const size_t qbit = static_cast<size_t>(q) % kMaxQuerySlots;
      const bool earliest_of_query = !seen_query.test(qbit);
      seen_query.set(qbit);
      if (MaskHas(v->allowed, p) && earliest_of_query) {
        const double rate_p = matrix.Rate(q, p);
        // Line 6: take the task if (i) this is the preferred processor and
        // the switch threshold has not been exceeded, or (ii) this is not
        // the preferred processor but either the threshold forces a switch
        // or the accumulated delay on the preferred processor exceeds this
        // processor's execution time for the task.
        //
        // The threshold exists to force observation of the *other*
        // processor, so it is bypassed when the task's mask excludes that
        // processor (a failover-narrowed retry): the only worker type that
        // could reset the count is the one the mask forbids, so honoring
        // the threshold would refuse the task forever — the requeued task
        // gates its query's assembly, so the refusal wedges the query.
        const bool task_has_other = MaskHas(v->allowed, other);
        const bool preferred_ok =
            p == ppref &&
            (!have_other || !task_has_other || matrix.Count(q, p) < st_);
        const bool steal_ok =
            p != ppref &&
            (matrix.Count(q, ppref) >= st_ || delay >= 1.0 / rate_p);
        if (preferred_ok || steal_ok) {
          const double norm = NormServiceOf(q);
          if (best == nullptr) {
            min_norm = norm;
          } else {
            min_norm = std::min(min_norm, norm);
          }
          // Strict < keeps ties on the earliest position (Alg. 1 order).
          if (best == nullptr || norm < best_norm) {
            best = v;
            best_pos = pos;
            best_ppref = ppref;
            best_norm = norm;
          }
          continue;  // candidates do not contribute to the delay estimate
        }
      }
      delay += 1.0 / matrix.Rate(q, ppref);                 // line 10
    }
    if (best != nullptr) {
      const int q = best->query_index;
      if (matrix.Count(q, best_ppref) >= st_) {
        matrix.ResetCount(q, best_ppref);                   // line 7
      }
      matrix.IncrementCount(q, p);                          // line 8
      ChargeService(q, best->total_bytes);
      // Advance the admission baseline to the least-served tenant seen this
      // scan: a slot admitted later starts here, not at zero.
      double base = base_vserv_.load(std::memory_order_relaxed);
      if (min_norm > base) {
        base_vserv_.store(min_norm, std::memory_order_relaxed);
      }
      queue.erase(queue.begin() + static_cast<long>(best_pos));
      return best;                                          // line 9
    }
    if (scan != nullptr) {
      scan->resume_pos = pos;
      scan->resume_delay = delay;
      scan->seen_queries = seen_query;
    }
    return nullptr;                                         // nothing eligible
  }

  /// Admission (or re-weighting) of a query slot. Resets the slot's virtual
  /// service to the current baseline, so a readmitted slot does not inherit
  /// the service history of the retired tenant that used it before.
  void SetQueryWeight(int query, double weight) override {
    if (query < 0 || static_cast<size_t>(query) >= kMaxQuerySlots) return;
    Share& s = shares_[static_cast<size_t>(query)];
    s.weight.store(std::max(weight, 1e-9), std::memory_order_relaxed);
    s.vserv.store(base_vserv_.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
  }

  void OnQueryRetired(int query) override {
    if (query < 0 || static_cast<size_t>(query) >= kMaxQuerySlots) return;
    Share& s = shares_[static_cast<size_t>(query)];
    s.weight.store(1.0, std::memory_order_relaxed);
    s.vserv.store(0.0, std::memory_order_relaxed);
  }

  ProcessorMask EligibleProcessors(const QueryTask& task, bool queue_was_empty,
                                   const ThroughputMatrix& matrix)
      const override {
    const ProcessorMask m = EligibleUnmasked(task, queue_was_empty, matrix);
    // A failover-narrowed task can only wake allowed processors. The
    // intersection cannot be empty in practice (the engine narrows only
    // toward processors that have workers), but fall back to the mask
    // itself rather than waking nobody.
    const ProcessorMask allowed = static_cast<ProcessorMask>(m & task.allowed);
    return allowed != 0 ? allowed : task.allowed;
  }

 private:
  ProcessorMask EligibleUnmasked(const QueryTask& task, bool queue_was_empty,
                                 const ThroughputMatrix& matrix) const {
    const int q = task.query_index;
    const Processor ppref = matrix.Preferred(q);
    if (!enabled_[static_cast<int>(ppref)]) {
      // No workers on the preferred processor: the task prefers whoever
      // asks, so any enabled processor can take it.
      ProcessorMask m = 0;
      for (int pi = 0; pi < kNumProcessors; ++pi) {
        if (enabled_[pi]) m |= ProcessorBit(static_cast<Processor>(pi));
      }
      return m;
    }
    const Processor other =
        ppref == Processor::kCpu ? Processor::kGpu : Processor::kCpu;
    const bool have_other = enabled_[static_cast<int>(other)];
    ProcessorMask m = 0;
    // Line 6 case (i): the preferred processor can take the new task unless
    // the switch threshold forces exploration on the other one.
    if (!have_other || matrix.Count(q, ppref) < st_) m |= ProcessorBit(ppref);
    // Line 6 case (ii): the other processor can steal when the threshold is
    // exceeded, or — only if tasks sit ahead of this one — when accumulated
    // delay might justify it. An empty queue means zero delay, and with
    // finite rates (kMinRate floor) zero delay never justifies a steal.
    if (have_other &&
        (matrix.Count(q, ppref) >= st_ || !queue_was_empty)) {
      m |= ProcessorBit(other);
    }
    return m;
  }

 private:
  /// Per-slot weighted-fair state. Atomics because the engine re-weights /
  /// retires slots from control threads while workers run Select under the
  /// queue lock; Select itself is serialized by that lock.
  struct Share {
    std::atomic<double> weight{1.0};
    std::atomic<double> vserv{0.0};  // served bytes / weight
  };

  double NormServiceOf(int q) const {
    return shares_[static_cast<size_t>(q) % kMaxQuerySlots].vserv.load(
        std::memory_order_relaxed);
  }

  void ChargeService(int q, size_t bytes) {
    Share& s = shares_[static_cast<size_t>(q) % kMaxQuerySlots];
    const double w = s.weight.load(std::memory_order_relaxed);
    // Select runs under the queue lock, so load+store does not race another
    // charge; a concurrent SetQueryWeight reset may win, which is fine.
    s.vserv.store(s.vserv.load(std::memory_order_relaxed) +
                      static_cast<double>(bytes) / w,
                  std::memory_order_relaxed);
  }

  const int st_;
  const size_t lookahead_cap_;
  std::unique_ptr<Share[]> shares_;
  std::atomic<double> base_vserv_{0.0};
  bool enabled_[kNumProcessors];
};

/// The single system-wide queue of query tasks (Fig. 4). Unbounded: the
/// dispatcher cuts a query's task only while its result slot is free, so
/// each query has at most QueryState::kSlots tasks queued or running, and
/// Push never waits. Worker wakeups are event-driven (see the file comment
/// for the protocol); there is no timed re-poll anywhere in the steady
/// state.
class TaskQueue {
 public:
  /// Returns false if the queue has been closed. When `policy` and `matrix`
  /// are supplied, only workers whose processor could plausibly select the
  /// new task are woken; otherwise all waiters are.
  bool Push(QueryTask* task, Scheduler* policy = nullptr,
            const ThroughputMatrix* matrix = nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return false;
    const bool was_empty = tasks_.empty();
    tasks_.push_back(task);
    ProcessorMask mask = kAllProcessors;
    if (policy != nullptr && matrix != nullptr) {
      mask = policy->EligibleProcessors(*task, was_empty, *matrix);
    }
    // One appended task enables at most one selection per processor, and
    // workers of the same processor are interchangeable: notify_one.
    NotifyLocked(mask, /*everyone=*/false);
    return true;
  }

  /// Returns a failed task to the queue *front*, so that policies still
  /// see each query's tasks in id order (HLS selects only a query's
  /// earliest queued task). Returns false when the queue is closed (caller
  /// recycles the task).
  bool Requeue(QueryTask* task) {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return false;
    tasks_.push_front(task);
    // Unlike an append, a front insert changes the prefix ahead of every
    // queued task (HLS delay accounting), so all scans are stale and any
    // processor's eligibility may have changed: wake everyone.
    InvalidateScansLocked();
    NotifyLocked(kAllProcessors, /*everyone=*/true);
    return true;
  }

  /// Runs the scheduling policy; blocks until a task is selected or the
  /// queue is closed. `wait` = false polls once. With wait = true, nullptr
  /// means the queue was closed.
  QueryTask* Select(Scheduler& policy, Processor p, ThroughputMatrix& matrix,
                    bool wait = true) {
    const int pi = static_cast<int>(p);
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      QueryTask* t = policy.Select(tasks_, p, matrix, &scan_[pi]);
      if (t != nullptr) {
        // The removal shifted queue positions, so cached scan hints are
        // stale for every policy. Only policies whose selection mutates
        // shared eligibility state (HLS: switch counts, lookahead window)
        // also need the broadcast — for FCFS/Static a removal can never
        // make a refused task eligible, and waking everyone per selected
        // task would put a thundering herd on the hot path.
        InvalidateScansLocked();
        if (policy.RemovalChangesEligibility()) {
          NotifyLocked(kAllProcessors, /*everyone=*/true);
        }
        return t;
      }
      if (closed_ || !wait) return nullptr;
      // All notifications happen under mu_, so nothing can slip between
      // this failed scan and the wait.
      cv_[pi].wait(lock);
    }
  }

  /// External eligibility change — the throughput matrix published new
  /// rates: preferences may have flipped, so cached scans are stale and any
  /// waiter may now have work.
  void OnEligibilityChanged() {
    std::lock_guard<std::mutex> lock(mu_);
    InvalidateScansLocked();
    NotifyLocked(kAllProcessors, /*everyone=*/true);
  }

  /// Registers a callback fired (under the queue lock) whenever processor
  /// `p` is notified; the GPGPU worker uses it to fold task availability
  /// into its single completion-queue select. Passing nullptr detaches the
  /// listener and, because detachment takes the queue lock, acts as a
  /// barrier: after it returns no further invocations are possible.
  void SetAvailabilityListener(Processor p, std::function<void()> listener) {
    std::lock_guard<std::mutex> lock(mu_);
    listeners_[static_cast<int>(p)] = std::move(listener);
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return tasks_.size();
  }
  bool empty() const { return size() == 0; }

  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    NotifyLocked(kAllProcessors, /*everyone=*/true);
  }

  /// Removes and returns every queued task of one query (query retirement:
  /// the engine sweeps a retired slot so no worker ever dequeues a task
  /// whose QueryState is gone). The caller releases the tasks to the pool
  /// and fixes its dispatch accounting. Queue positions shifted, so scan
  /// hints are invalidated and all workers are re-woken.
  std::vector<QueryTask*> SweepQuery(int query_index) {
    std::vector<QueryTask*> out;
    std::lock_guard<std::mutex> lock(mu_);
    auto keep = tasks_.begin();
    for (QueryTask* t : tasks_) {
      if (t->query_index == query_index) {
        out.push_back(t);
      } else {
        *keep++ = t;
      }
    }
    if (!out.empty()) {
      tasks_.erase(keep, tasks_.end());
      InvalidateScansLocked();
      NotifyLocked(kAllProcessors, /*everyone=*/true);
    }
    return out;
  }

  /// Removes and returns all remaining tasks (engine shutdown).
  std::deque<QueryTask*> DrainRemaining() {
    std::lock_guard<std::mutex> lock(mu_);
    InvalidateScansLocked();
    std::deque<QueryTask*> out;
    out.swap(tasks_);
    return out;
  }

 private:
  void InvalidateScansLocked() {
    for (ScanState& s : scan_) s = ScanState{};
  }

  void NotifyLocked(ProcessorMask mask, bool everyone) {
    for (int pi = 0; pi < kNumProcessors; ++pi) {
      if (!MaskHas(mask, static_cast<Processor>(pi))) continue;
      if (everyone) {
        cv_[pi].notify_all();
      } else {
        cv_[pi].notify_one();
      }
      if (listeners_[pi]) listeners_[pi]();
    }
  }

  mutable std::mutex mu_;
  /// Per-processor eligibility wakeup channels plus the persisted scan
  /// hints; all guarded by mu_.
  std::condition_variable cv_[kNumProcessors];
  ScanState scan_[kNumProcessors];
  std::function<void()> listeners_[kNumProcessors];
  std::deque<QueryTask*> tasks_;
  bool closed_ = false;
};

}  // namespace saber
