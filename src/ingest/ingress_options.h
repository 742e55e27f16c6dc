#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

namespace saber::obs {
class MetricsRegistry;
}  // namespace saber::obs

/// \file ingress_options.h
/// Configuration and statistics surface of the sharded ingestion stage
/// (src/ingest/). See sharded_ingress.h for the stage overview and
/// docs/architecture.md ("Ingestion stage") for the end-to-end walkthrough.

namespace saber::ingest {

/// What a producer does with a tuple that arrives *later than the allowed
/// lateness permits* — its timestamp is below the shard's disorder horizon
/// `max seen timestamp − allowed_lateness` (with `allowed_lateness == 0`
/// that is exactly a timestamp regression). See producer_handle.h for the
/// reorder-buffer mechanics and docs/architecture.md ("Event time &
/// disorder") for the end-to-end contract.
enum class LatePolicy : uint8_t {
  /// Abort the process with a clear message — the pre-disorder behavior and
  /// the default. With `allowed_lateness == 0` the message is byte-for-byte
  /// the historical "timestamps must be non-decreasing" abort.
  kAbort,
  /// Silently drop the tuple and count it (ProducerStats::late_dropped).
  kDropAndCount,
  /// Hand the tuple to `IngressOptions::dead_letter_sink` and count it
  /// (ProducerStats::dead_lettered). Falls back to kDropAndCount semantics
  /// when no sink is configured (the count still lands in dead_lettered).
  kDeadLetter,
};

/// The disorder horizon `max_seen − lateness` (lateness >= 0), below which
/// a tuple is late: clamped at INT64_MIN instead of overflowing, so a shard
/// with nothing seen yet (max_seen == INT64_MIN) has no late tuples. The
/// ingress reorder buffers and the network server's late check share it.
inline int64_t HorizonOf(int64_t max_seen, int64_t lateness) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  return (max_seen < kMin + lateness) ? kMin : max_seen - lateness;
}

/// Side sink for kDeadLetter tuples. Runs on the *producer's* thread, once
/// per late tuple, before Append returns; it must not call back into the
/// ingress. `tuple` points at `tuple_size` serialized bytes valid only for
/// the duration of the call.
using DeadLetterSink =
    std::function<void(int producer, const void* tuple, size_t tuple_size)>;

/// Knobs of one `ShardedIngress` (one sharded front end for one query input
/// stream). Units, defaults and interactions follow the EngineOptions
/// documentation style; the README carries the same table.
struct IngressOptions {
  /// Independent producer handles (shards). Each handle owns a private
  /// staging buffer and may be driven by its own client thread with no
  /// shared lock on the append path. Unit: producers. Default: 2.
  int num_producers = 2;

  /// Staging buffer capacity per producer. Unit: bytes (rounded up to a
  /// multiple of the tuple size). Default: 4 MiB. Bounds how far a fast
  /// producer can run ahead of the watermark merge before its `Append`
  /// blocks on the staging free channel; it also bounds the data abandoned
  /// by `Stop`. Must comfortably exceed the producer's append granularity.
  size_t staging_buffer_bytes = size_t{4} << 20;

  /// Merge delivery granularity: the merger accumulates merged tuples into
  /// a scratch block of at most this many bytes before handing it
  /// downstream (one `Engine::InsertInto` call per block), so per-call
  /// downstream overhead (dispatch locks, task-cut checks) is amortized
  /// over many producer appends. Unit: bytes (rounded down to a multiple of
  /// the tuple size, floored at one tuple). Default: 256 KiB. Larger blocks
  /// amortize better but add merge latency and retain staging bytes longer.
  size_t merge_batch_bytes = size_t{256} << 10;

  /// Initial per-producer rate limit (token bucket in front of each shard's
  /// staging insert). Unit: bytes/second; <= 0 leaves producers unmetered.
  /// Default: 0. Re-meter a live producer with
  /// `ShardedIngress::SetProducerRate` (thread-safe, takes effect within
  /// one limiter wait slice — see runtime/rate_limiter.h).
  double producer_rate_bytes_per_sec = 0.0;

  /// Bounded-disorder contract: how far below its shard's maximum seen
  /// timestamp a tuple may arrive and still be accepted. Unit: timestamp
  /// ticks. Default: 0 (strictly ordered input, the historical contract).
  /// A positive value arms a per-producer reorder buffer: accepted tuples
  /// are held and re-sorted until the shard's disorder horizon
  /// `max_seen − allowed_lateness` passes them, so the stream each shard
  /// *stages* stays non-decreasing and every PR 5 merge invariant holds
  /// unchanged. The effective sealing watermark becomes
  /// `min(max seen) − allowed_lateness − 1`: lateness directly adds
  /// result latency, it never reorders the merged output.
  int64_t allowed_lateness = 0;

  /// What to do with a tuple below the disorder horizon. Default: kAbort
  /// (the historical behavior). Applies with or without lateness: with
  /// `allowed_lateness == 0`, kDropAndCount/kDeadLetter turn the historical
  /// regression abort into a counted drop / side-channel delivery.
  LatePolicy late_policy = LatePolicy::kAbort;

  /// Receives kDeadLetter tuples (see DeadLetterSink). Default: none.
  DeadLetterSink dead_letter_sink;

  /// Reorder-buffer capacity per producer, bounding how many accepted
  /// tuples can be simultaneously in flight inside the lateness horizon.
  /// Unit: bytes (floored at one tuple). Default: 1 MiB. When the buffer
  /// is full the producer force-flushes its earliest held tuple early and
  /// raises the shard's late threshold to that tuple's timestamp — the
  /// memory bound is hard, and overflow *shrinks the effective lateness*
  /// instead of growing the buffer (late tuples under the raised threshold
  /// follow late_policy). Size it at least
  /// `tuples_per_tick × allowed_lateness × tuple_size` to make overflow
  /// impossible.
  size_t reorder_buffer_bytes = size_t{1} << 20;

  /// Watermark watchdog: a liveness monitor on the sealing watermark. When
  /// > 0, a dedicated thread polls the merge progress and *trips* —
  /// IngressStats::watchdog_trips plus a stderr diagnostic naming the
  /// pinning shard — once bytes sit staged but nothing has merged for this
  /// long (a producer is holding the watermark back: disconnected-but-open
  /// shard, never-appended shard, stuck client). Detection latency is at
  /// most 1.5× this interval (the thread polls at half of it). Unit:
  /// nanoseconds. Default: 0 (off).
  int64_t watchdog_nanos = 0;

  /// When the watchdog trips, also revoke the pinning shard so the
  /// watermark releases and the remaining shards merge (the revoked shard's
  /// reorder tail is abandoned — liveness bought with that shard's
  /// sub-lateness data). Default: off — observe only.
  bool watchdog_force_close = false;

  /// Prefix for the watchdog's stderr diagnostics (e.g. "query 3 input 0"
  /// when the server owns the ingress). Default: empty.
  std::string watchdog_label;

  /// Metrics registry this ingress registers its counters on
  /// (saber_ingest_* / saber_watermark_* / saber_watchdog_* series, labeled
  /// {ingress=metrics_label} and, per shard, {producer=i}). Null (default)
  /// keeps the counters private to stats(). The engine fills this in for
  /// engine-managed ingresses (Engine::AttachIngress); the registry must
  /// outlive the ingress, which unregisters on destruction.
  obs::MetricsRegistry* metrics = nullptr;
  /// Value of the `ingress` label; empty falls back to "ingress" (or, for
  /// engine-managed ingresses, to "<query>/in<input>").
  std::string metrics_label;
};

/// Per-producer counters (monotone; readable from any thread while the
/// ingress is live).
struct ProducerStats {
  int64_t tuples = 0;             ///< tuples accepted by Append
  int64_t bytes = 0;              ///< bytes accepted by Append
  int64_t appends = 0;            ///< successful Append calls
  int64_t backpressure_waits = 0; ///< sleeps on the staging free channel
  int64_t throttle_waits = 0;     ///< sleeps forced by the rate limiter
  /// Tuples below the disorder horizon dropped under kDropAndCount.
  int64_t late_dropped = 0;
  /// Tuples below the disorder horizon routed to the dead-letter sink
  /// under kDeadLetter (counted even when no sink is configured).
  int64_t dead_lettered = 0;
  /// Current rate-limit setting (bytes/s; <= 0 = unmetered).
  double rate_limit_bytes_per_sec = 0.0;
};

/// Snapshot of one ingress: per-producer counters plus merger counters.
struct IngressStats {
  std::vector<ProducerStats> producers;

  /// Merge cycles that sealed at least one tuple.
  int64_t merge_cycles = 0;
  /// Cycles that found staged bytes but could not seal any (the low
  /// watermark — min over open producers' last timestamps — had not
  /// advanced past the staged data). A persistently climbing stall count
  /// with pending bytes means one producer is holding the watermark back.
  int64_t watermark_stalls = 0;
  /// Contiguous single-producer spans copied by the k-way merge.
  int64_t merge_runs = 0;
  /// Downstream deliveries (`merge_batch_bytes`-bounded blocks).
  int64_t merged_batches = 0;
  int64_t merged_bytes = 0;
  int64_t merged_tuples = 0;

  /// Watermark-watchdog detections: staged bytes pending but no merge
  /// progress for a full watchdog interval (edge-triggered — one trip per
  /// continuous stall, re-armed when the merge moves again).
  int64_t watchdog_trips = 0;
  /// Shards the watchdog revoked under IngressOptions::watchdog_force_close.
  int64_t watchdog_force_closes = 0;
};

}  // namespace saber::ingest
