#pragma once

#include <cstring>
#include <memory>

#include "relational/aggregate.h"
#include "runtime/align.h"
#include "runtime/byte_buffer.h"

/// \file hash_table.h
/// Open-addressing, linear-probing GROUP-BY hash table backed by a byte
/// array (§5.3 "statically allocated pool of hash table objects, which are
/// backed by byte arrays"). The CPU workers and the simulated GPGPU run the
/// same aggregation operator, so a table has one layout and hash function
/// on both processors, which the paper requires so that a tuple inserted on
/// one processor can be located on the other (§5.4).
///
/// Slot layout (stride bytes, 8-aligned):
///   int32  marker    — -1 if empty, else the index of the first input tuple
///                      that occupied the slot (§5.4).
///   int32  pad
///   int64  timestamp — representative (max) timestamp of the group
///   uint8  key[key_size]
///   AggState aggs[num_aggs]
///
/// A table is single-threaded: each task, or each of the device's work
/// groups, fills its own.

namespace saber {

/// Initial capacity of the per-task GROUP-BY tables. The CPU aggregation
/// operator pools tables of exactly this capacity (cpu_operators.cc):
/// SerializeTo emits entries in slot order, which depends on the capacity
/// history, so a pooled table must start every task at the same capacity a
/// freshly constructed one would — otherwise two runs over identical input
/// could produce permuted (though semantically equal) pane partials.
inline constexpr size_t kGroupTableTaskCapacity = 256;

class GroupHashTable {
 public:
  GroupHashTable(size_t key_size, size_t num_aggs, size_t min_capacity)
      : key_size_(AlignUp(key_size == 0 ? 1 : key_size, 8)),
        num_aggs_(num_aggs == 0 ? 1 : num_aggs),
        stride_(16 + key_size_ + num_aggs_ * sizeof(AggState)),
        capacity_(NextPowerOfTwo(min_capacity < 8 ? 8 : min_capacity)),
        mask_(capacity_ - 1) {
    data_.Resize(stride_ * capacity_);
    Clear();
  }

  size_t capacity() const { return capacity_; }
  size_t key_size() const { return key_size_; }
  size_t num_aggs() const { return num_aggs_; }
  size_t size() const { return occupied_; }

  void Clear() {
    uint8_t* p = data_.data();
    for (size_t i = 0; i < capacity_; ++i) {
      int32_t minus_one = -1;
      std::memcpy(p + i * stride_, &minus_one, sizeof(minus_one));
    }
    occupied_ = 0;
  }

  /// MurmurHash3 finalizer over the key bytes.
  uint32_t Hash(const uint8_t* key) const {
    uint64_t h = 0x9E3779B97F4A7C15ULL;
    for (size_t off = 0; off < key_size_; off += 8) {
      uint64_t chunk = 0;
      std::memcpy(&chunk, key + off, std::min<size_t>(8, key_size_ - off));
      h ^= chunk;
      h ^= h >> 33;
      h *= 0xFF51AFD7ED558CCDULL;
      h ^= h >> 33;
      h *= 0xC4CEB9FE1A85EC53ULL;
      h ^= h >> 33;
    }
    return static_cast<uint32_t>(h);
  }

  /// Finds or creates the group for `key`, single-threaded. Returns the
  /// slot's aggregate array, or nullptr if the table is full (caller grows).
  AggState* Upsert(const uint8_t* key, int32_t tuple_index, int64_t ts) {
    return UpsertHashed(Hash(key), key, tuple_index, ts);
  }

  /// Upsert with a caller-precomputed hash: the CPU operator hashes
  /// a whole run of packed keys in one pass before probing.
  AggState* UpsertHashed(uint32_t h, const uint8_t* key, int32_t tuple_index,
                         int64_t ts) {
    for (size_t probe = 0; probe < capacity_; ++probe) {
      uint8_t* slot = SlotAt((h + probe) & mask_);
      int32_t marker;
      std::memcpy(&marker, slot, sizeof(marker));
      if (marker == -1) {
        std::memcpy(slot, &tuple_index, sizeof(tuple_index));
        std::memcpy(slot + 8, &ts, sizeof(ts));
        std::memcpy(slot + 16, key, key_size_);
        AggState* aggs = SlotAggs(slot);
        for (size_t a = 0; a < num_aggs_; ++a) AggInit(&aggs[a]);
        ++occupied_;
        return aggs;
      }
      if (std::memcmp(slot + 16, key, key_size_) == 0) {
        int64_t old_ts;
        std::memcpy(&old_ts, slot + 8, sizeof(old_ts));
        if (ts > old_ts) std::memcpy(slot + 8, &ts, sizeof(ts));
        return SlotAggs(slot);
      }
    }
    return nullptr;
  }

  /// Grows the table 2x and rehashes.
  void Grow() {
    GroupHashTable bigger(key_size_, num_aggs_, capacity_ * 2);
    bigger.key_size_ = key_size_;  // keep exact (already aligned)
    ForEachOccupied([&](const uint8_t* key, int64_t ts, const AggState* aggs) {
      AggState* dst = bigger.Upsert(key, 0, ts);
      SABER_CHECK(dst != nullptr);
      for (size_t a = 0; a < num_aggs_; ++a) AggMerge(&dst[a], aggs[a]);
    });
    data_ = std::move(bigger.data_);
    capacity_ = bigger.capacity_;
    mask_ = bigger.mask_;
    occupied_ = bigger.occupied_;
  }

  bool NeedsGrow() const { return occupied_ * 10 >= capacity_ * 7; }

  /// Invokes fn(key, timestamp, aggs) for every occupied slot.
  template <typename Fn>
  void ForEachOccupied(Fn&& fn) const {
    const uint8_t* p = data_.data();
    for (size_t i = 0; i < capacity_; ++i) {
      const uint8_t* slot = p + i * stride_;
      int32_t marker;
      std::memcpy(&marker, slot, sizeof(marker));
      if (marker == -1) continue;
      int64_t ts;
      std::memcpy(&ts, slot + 8, sizeof(ts));
      fn(slot + 16, ts, reinterpret_cast<const AggState*>(slot + 16 + key_size_));
    }
  }

  /// Serializes occupied slots as compact entries
  /// [int64 ts][key bytes][AggState x num_aggs] — the window-fragment result
  /// representation that crosses the (simulated) PCIe bus and feeds assembly.
  void SerializeTo(ByteBuffer* out) const {
    ForEachOccupied([&](const uint8_t* key, int64_t ts, const AggState* aggs) {
      out->AppendValue<int64_t>(ts);
      out->Append(key, key_size_);
      out->Append(aggs, num_aggs_ * sizeof(AggState));
    });
  }

  /// Size of one serialized entry.
  size_t entry_size() const {
    return 8 + key_size_ + num_aggs_ * sizeof(AggState);
  }

  /// Merges serialized entries (produced by SerializeTo with identical
  /// key_size/num_aggs) into this table, growing as needed.
  void MergeSerialized(const uint8_t* entries, size_t bytes) {
    const size_t esz = entry_size();
    SABER_CHECK(bytes % esz == 0);
    for (size_t off = 0; off < bytes; off += esz) {
      const uint8_t* e = entries + off;
      int64_t ts;
      std::memcpy(&ts, e, sizeof(ts));
      const uint8_t* key = e + 8;
      const auto* aggs = reinterpret_cast<const AggState*>(e + 8 + key_size_);
      if (NeedsGrow()) Grow();
      AggState* dst = Upsert(key, 0, ts);
      if (dst == nullptr) {
        Grow();
        dst = Upsert(key, 0, ts);
        SABER_CHECK(dst != nullptr);
      }
      for (size_t a = 0; a < num_aggs_; ++a) AggMerge(&dst[a], aggs[a]);
    }
  }

 private:
  uint8_t* SlotAt(size_t i) { return data_.data() + i * stride_; }
  const uint8_t* SlotAt(size_t i) const { return data_.data() + i * stride_; }
  AggState* SlotAggs(uint8_t* slot) {
    return reinterpret_cast<AggState*>(slot + 16 + key_size_);
  }

  size_t key_size_;
  size_t num_aggs_;
  size_t stride_;
  size_t capacity_;
  size_t mask_;
  size_t occupied_ = 0;
  ByteBuffer data_;
};

}  // namespace saber
