#include "ingest/producer_handle.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>

#include "ingest/sharded_ingress.h"
#include "relational/tuple_ref.h"

namespace saber::ingest {

bool ProducerHandle::Append(const void* tuples, size_t bytes) {
  if (closed_.load(std::memory_order_relaxed)) {
    std::fprintf(stderr,
                 "ProducerHandle::Append: producer %d appended after Close\n",
                 index_);
    std::abort();
  }
  if (bytes % tuple_size_ != 0) {
    std::fprintf(stderr,
                 "ProducerHandle::Append: producer %d appended %zu bytes, not "
                 "a multiple of the %zu-byte tuple size\n",
                 index_, bytes, tuple_size_);
    std::abort();
  }
  if (owner_->stopped()) return false;  // appended data would be abandoned
  if (revoked_.load()) return false;    // engine tore this shard down
  if (bytes == 0) return true;

  if (!disordered()) {
    // Strict-order contract (the default): validate the shard-local
    // timestamp order up front. The merged stream's non-decreasing
    // invariant (which dispatch, pane math and the join cut all rely on)
    // is exactly "every shard is non-decreasing", so a violation must fail
    // here, loudly, not surface as corrupt windows downstream.
    const int64_t bad =
        FirstTimestampRegression(tuples, bytes, tuple_size_, &prev_append_ts_);
    if (bad >= 0) {
      std::fprintf(stderr,
                   "ProducerHandle::Append: producer %d timestamps must be "
                   "non-decreasing (violated at tuple %lld of this append)\n",
                   index_, static_cast<long long>(bad));
      std::abort();
    }
  }
  // Per-tenant metering, before the in-append window opens: a throttled
  // shard sleeps here without making the watermark treat it as mid-append.
  limiter_.Acquire(static_cast<int64_t>(bytes));

  // The in_append_/revoked_ handshake (all four accesses seq_cst): either
  // this thread observes revoked_ below and bails before staging anything,
  // or Revoke's caller — and through the epoch bump, the merger — observes
  // in_append_ == true and keeps treating the shard as unfinished until the
  // guard clears the flag. Both misses at once would let the merger advance
  // the watermark past a chunk still landing, which would merge it out of
  // order downstream.
  in_append_.store(true);
  struct InAppendGuard {
    ProducerHandle* p;
    ~InAppendGuard() {
      p->in_append_.store(false);
      // The merger may be parked waiting for this shard to finish.
      p->owner_->BumpIngestEpoch();
    }
  } guard{this};
  if (revoked_.load()) return false;
  const uint8_t* src = static_cast<const uint8_t*>(tuples);
  const bool ok =
      disordered() ? AppendDisordered(src, bytes) : StageBytes(src, bytes);
  if (!ok) return false;
  appends_.Increment();
  return true;
}

bool ProducerHandle::StageBytes(const uint8_t* src, size_t bytes) {
  // A block larger than the staging ring can never fit in one piece; split
  // it so arbitrarily large appends simply block on staging back-pressure
  // (same recipe as Engine::InsertInto).
  const size_t max_chunk =
      std::max(tuple_size_,
               staging_.capacity() / 2 / tuple_size_ * tuple_size_);
  for (size_t off = 0; off < bytes;) {
    const size_t chunk = std::min(max_chunk, bytes - off);
    for (;;) {
      // Epoch before the attempt: a free landing after this read makes the
      // wait below return immediately (no lost wakeup).
      const uint32_t epoch = staging_.free_epoch();
      if (staging_.TryInsert(src + off, chunk)) break;
      if (owner_->stopped() || revoked_.load()) return false;
      // The merger frees staged bytes as it seals them; make sure it is
      // awake (it may be waiting for this shard to pass the watermark),
      // then sleep on the staging free channel.
      owner_->BumpIngestEpoch();
      waits_.Increment();
      staging_.WaitFreeEpoch(epoch);
    }
    off += chunk;
    int64_t chunk_last_ts;
    std::memcpy(&chunk_last_ts, src + off - tuple_size_, sizeof(chunk_last_ts));
    // Publish the watermark input *after* the buffer's end release: a merger
    // that acquires this last_ts is then guaranteed to also see every tuple
    // counted under it (the sealing proof in watermark_merger.cc needs it).
    last_ts_.store(chunk_last_ts, std::memory_order_release);
    has_appended_.store(true, std::memory_order_release);
    tuples_.Increment(static_cast<int64_t>(chunk / tuple_size_));
    bytes_.Increment(static_cast<int64_t>(chunk));
    owner_->BumpIngestEpoch();
  }
  return true;
}

bool ProducerHandle::AppendDisordered(const uint8_t* src, size_t bytes) {
  flush_scratch_.clear();
  for (size_t off = 0; off < bytes; off += tuple_size_) {
    const uint8_t* tuple = src + off;
    int64_t ts;
    std::memcpy(&ts, tuple, sizeof(ts));
    // Late iff below the disorder horizon (max seen − lateness) or below
    // the overflow-raised floor — either way the sorted prefix covering it
    // has already been (or may already have been) staged.
    if (has_seen_ts_ &&
        (ts < HorizonOf(max_seen_ts_, lateness_) || ts < late_floor_)) {
      HandleLateTuple(tuple);
      continue;
    }
    if (!has_seen_ts_ || ts > max_seen_ts_) {
      max_seen_ts_ = ts;
      has_seen_ts_ = true;
    }
    if (use_buckets_) {
      // Span guard: two live ticks must never share a bucket, so before a
      // tick a full ring ahead of the minimum is inserted, drain everything
      // the (freshly advanced) horizon has passed. Afterwards every held
      // tick is > max_seen − lateness >= ts − lateness > ts − ring size.
      // Unsigned subtraction so an extreme first-vs-second timestamp gap
      // cannot overflow; a tuple below the minimum wraps huge and merely
      // triggers a harmless early drain.
      if (pending_count_ > 0 &&
          static_cast<uint64_t>(ts) - static_cast<uint64_t>(tick_heap_.front()) >=
              buckets_.size()) {
        CollectBucketTicksTo(HorizonOf(max_seen_ts_, lateness_));
      }
      if (free_slots_.empty()) EvictEarliestTick();
      const uint32_t slot = free_slots_.back();
      free_slots_.pop_back();
      std::memcpy(reorder_slab_.data() + slot * tuple_size_, tuple,
                  tuple_size_);
      std::vector<uint32_t>& bucket =
          buckets_[static_cast<uint64_t>(ts) & bucket_mask_];
      if (bucket.empty()) {
        tick_heap_.push_back(ts);
        std::push_heap(tick_heap_.begin(), tick_heap_.end(),
                       std::greater<int64_t>());
      }
      bucket.push_back(slot);
      ++pending_count_;
      continue;
    }
    if (free_slots_.empty()) {
      // Hard memory bound: force-flush the earliest held tuple and raise
      // the late threshold to its timestamp. Everything still buffered and
      // every future accepted tuple is >= it (it was the (ts, seq) min and
      // the raised floor rejects later arrivals below it), so the scratch
      // block stays sorted and effective lateness shrinks instead of the
      // buffer growing.
      std::pop_heap(heap_.begin(), heap_.end(), HeapAfter);
      const Pending p = heap_.back();
      heap_.pop_back();
      const uint8_t* held = reorder_slab_.data() + p.slot * tuple_size_;
      flush_scratch_.insert(flush_scratch_.end(), held, held + tuple_size_);
      free_slots_.push_back(p.slot);
      late_floor_ = std::max(late_floor_, p.ts);
    }
    const uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    std::memcpy(reorder_slab_.data() + slot * tuple_size_, tuple, tuple_size_);
    heap_.push_back(Pending{ts, reorder_seq_++, slot});
    std::push_heap(heap_.begin(), heap_.end(), HeapAfter);
  }
  return FlushReorderBuffer(
      has_seen_ts_ ? HorizonOf(max_seen_ts_, lateness_)
                   : std::numeric_limits<int64_t>::min());
}

bool ProducerHandle::FlushReorderBuffer(int64_t horizon) {
  // Collect every held tuple the horizon has passed — sorted and
  // arrival-stable either way — appended after any force-flushed tuples
  // already in the scratch (which are <= everything still held).
  if (use_buckets_) {
    CollectBucketTicksTo(horizon);
  } else {
    while (!heap_.empty() && heap_.front().ts <= horizon) {
      std::pop_heap(heap_.begin(), heap_.end(), HeapAfter);
      const Pending p = heap_.back();
      heap_.pop_back();
      const uint8_t* held = reorder_slab_.data() + p.slot * tuple_size_;
      flush_scratch_.insert(flush_scratch_.end(), held, held + tuple_size_);
      free_slots_.push_back(p.slot);
    }
  }
  if (flush_scratch_.empty()) return true;
  const bool ok = StageBytes(flush_scratch_.data(), flush_scratch_.size());
  flush_scratch_.clear();  // on failure the ingress is stopping; data is
                           // abandoned exactly like staged-but-unsealed bytes
  return ok;
}

void ProducerHandle::CollectBucketTicksTo(int64_t horizon) {
  // Walk distinct ticks in order off the tick heap; within a tick the
  // bucket FIFO is arrival order, so the scratch gets the (ts, arrival)
  // stable order without any per-tuple comparisons.
  while (!tick_heap_.empty() && tick_heap_.front() <= horizon) {
    std::pop_heap(tick_heap_.begin(), tick_heap_.end(),
                  std::greater<int64_t>());
    const int64_t tick = tick_heap_.back();
    tick_heap_.pop_back();
    std::vector<uint32_t>& bucket =
        buckets_[static_cast<uint64_t>(tick) & bucket_mask_];
    for (const uint32_t slot : bucket) {
      const uint8_t* held = reorder_slab_.data() + slot * tuple_size_;
      flush_scratch_.insert(flush_scratch_.end(), held, held + tuple_size_);
      free_slots_.push_back(slot);
    }
    pending_count_ -= bucket.size();
    bucket.clear();  // keeps capacity: steady state allocates nothing
  }
}

void ProducerHandle::EvictEarliestTick() {
  // Hard memory bound, bucket flavor: force-flush the entire earliest held
  // tick and raise the late threshold to it. The tick is the minimum of
  // everything held, so the scratch block stays sorted; a later arrival at
  // the same tick is still accepted and stages behind it (equal timestamps
  // keep the stream non-decreasing), matching the heap path's semantics.
  std::pop_heap(tick_heap_.begin(), tick_heap_.end(), std::greater<int64_t>());
  const int64_t tick = tick_heap_.back();
  tick_heap_.pop_back();
  std::vector<uint32_t>& bucket =
      buckets_[static_cast<uint64_t>(tick) & bucket_mask_];
  for (const uint32_t slot : bucket) {
    const uint8_t* held = reorder_slab_.data() + slot * tuple_size_;
    flush_scratch_.insert(flush_scratch_.end(), held, held + tuple_size_);
    free_slots_.push_back(slot);
  }
  pending_count_ -= bucket.size();
  bucket.clear();
  late_floor_ = std::max(late_floor_, tick);
}

void ProducerHandle::HandleLateTuple(const uint8_t* tuple) {
  int64_t ts;
  std::memcpy(&ts, tuple, sizeof(ts));
  switch (late_policy_) {
    case LatePolicy::kAbort:
      std::fprintf(
          stderr,
          "ProducerHandle::Append: producer %d tuple timestamp %lld is below "
          "the late threshold %lld (max seen %lld, allowed_lateness %lld)\n",
          index_, static_cast<long long>(ts),
          static_cast<long long>(
              std::max(HorizonOf(max_seen_ts_, lateness_), late_floor_)),
          static_cast<long long>(max_seen_ts_),
          static_cast<long long>(lateness_));
      std::abort();
    case LatePolicy::kDropAndCount:
      late_dropped_.Increment();
      break;
    case LatePolicy::kDeadLetter:
      if (dead_letter_) dead_letter_(index_, tuple, tuple_size_);
      dead_lettered_.Increment();
      break;
  }
}

void ProducerHandle::Close() {
  if (closed_.load(std::memory_order_acquire)) return;
  if (disordered() && (pending_count_ > 0 || !heap_.empty()) &&
      !owner_->stopped() && !revoked_.load()) {
    // End-of-stream flush: everything still inside the lateness horizon
    // stages now, sorted, before the shard stops pinning the watermark.
    // The in_append_ guard mirrors Append's — without it a Revoke racing
    // this flush would let the merger advance the watermark past tuples
    // still landing in staging.
    in_append_.store(true);
    struct InAppendGuard {
      ProducerHandle* p;
      ~InAppendGuard() {
        p->in_append_.store(false);
        p->owner_->BumpIngestEpoch();
      }
    } guard{this};
    if (!revoked_.load()) FlushReorderBuffer(std::numeric_limits<int64_t>::max());
  }
  if (closed_.exchange(true, std::memory_order_release)) return;
  // Wake the merger: this shard no longer pins the watermark, so previously
  // unsealable data (its own remainder, and other shards' tuples this one
  // was holding back) may now merge.
  owner_->BumpIngestEpoch();
}

void ProducerHandle::Revoke() {
  if (revoked_.exchange(true)) return;  // seq_cst, see the Append handshake
  // Unpark an Append sleeping on staging back-pressure (it re-checks
  // revoked_ before waiting again) and one throttled inside the limiter
  // (bounded wait slices; the rate is left as configured). Reorder-buffered
  // tuples are simply abandoned, like staged-but-unsealed bytes.
  staging_.WakeProducer();
  // Re-derive the watermark: if no Append is in flight this shard is now
  // finished and stops pinning W; if one is, its exit bumps the epoch again.
  owner_->BumpIngestEpoch();
}

void ProducerHandle::RegisterMetrics(obs::MetricsRegistry* registry,
                                     const obs::Labels& labels,
                                     const void* owner) const {
  registry->RegisterCounter("saber_ingest_tuples_total", labels, &tuples_,
                            owner, "Tuples accepted by Append");
  registry->RegisterCounter("saber_ingest_bytes_total", labels, &bytes_,
                            owner, "Bytes accepted by Append");
  registry->RegisterCounter("saber_ingest_appends_total", labels, &appends_,
                            owner, "Successful Append calls");
  registry->RegisterCounter("saber_ingest_backpressure_waits_total", labels,
                            &waits_, owner,
                            "Producer sleeps on the staging free channel");
  registry->RegisterCounter(
      "saber_ingest_late_dropped_total", labels, &late_dropped_, owner,
      "Late tuples dropped under LatePolicy::kDropAndCount");
  registry->RegisterCounter(
      "saber_ingest_dead_lettered_total", labels, &dead_lettered_, owner,
      "Late tuples routed to the dead-letter sink");
}

}  // namespace saber::ingest
