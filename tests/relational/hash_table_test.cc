#include "relational/hash_table.h"

#include <gtest/gtest.h>

#include <cstring>
#include <map>

namespace saber {
namespace {

void PackKey(uint8_t* buf, int64_t k) { std::memcpy(buf, &k, sizeof(k)); }

TEST(GroupHashTable, UpsertCreatesAndFinds) {
  GroupHashTable t(8, 1, 16);
  uint8_t key[8];
  PackKey(key, 42);
  AggState* a = t.Upsert(key, 0, 100);
  ASSERT_NE(a, nullptr);
  AggAdd(a, 1.5);
  AggState* b = t.Upsert(key, 1, 200);
  EXPECT_EQ(a, b);  // same slot
  AggAdd(b, 2.5);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_DOUBLE_EQ(a->sum, 4.0);
}

TEST(GroupHashTable, TracksMaxTimestamp) {
  GroupHashTable t(8, 1, 16);
  uint8_t key[8];
  PackKey(key, 1);
  t.Upsert(key, 0, 300);
  t.Upsert(key, 1, 100);  // older ts must not regress
  int64_t seen_ts = 0;
  t.ForEachOccupied([&](const uint8_t*, int64_t ts, const AggState*) {
    seen_ts = ts;
  });
  EXPECT_EQ(seen_ts, 300);
}

TEST(GroupHashTable, ManyKeysWithGrowth) {
  GroupHashTable t(8, 1, 8);
  uint8_t key[8];
  std::map<int64_t, double> expect;
  for (int64_t k = 0; k < 1000; ++k) {
    PackKey(key, k % 137);
    if (t.NeedsGrow()) t.Grow();
    AggState* a = t.Upsert(key, static_cast<int32_t>(k), k);
    ASSERT_NE(a, nullptr);
    AggAdd(a, 1.0);
    expect[k % 137] += 1.0;
  }
  EXPECT_EQ(t.size(), expect.size());
  size_t seen = 0;
  t.ForEachOccupied([&](const uint8_t* kb, int64_t, const AggState* aggs) {
    int64_t k;
    std::memcpy(&k, kb, sizeof(k));
    EXPECT_DOUBLE_EQ(aggs[0].sum, expect[k]);
    ++seen;
  });
  EXPECT_EQ(seen, expect.size());
}

TEST(GroupHashTable, SerializeAndMergeRoundTrip) {
  GroupHashTable a(8, 2, 16), b(8, 2, 16);
  uint8_t key[8];
  for (int64_t k = 0; k < 10; ++k) {
    PackKey(key, k);
    AggState* s = a.Upsert(key, 0, k * 10);
    AggAdd(&s[0], static_cast<double>(k));
    AggAdd(&s[1], 1.0);
  }
  ByteBuffer serialized;
  a.SerializeTo(&serialized);
  EXPECT_EQ(serialized.size(), 10 * a.entry_size());

  // Merge twice: aggregates double.
  b.MergeSerialized(serialized.data(), serialized.size());
  b.MergeSerialized(serialized.data(), serialized.size());
  EXPECT_EQ(b.size(), 10u);
  b.ForEachOccupied([&](const uint8_t* kb, int64_t ts, const AggState* aggs) {
    int64_t k;
    std::memcpy(&k, kb, sizeof(k));
    EXPECT_DOUBLE_EQ(aggs[0].sum, 2.0 * k);
    EXPECT_EQ(aggs[1].count, 2);
    EXPECT_EQ(ts, k * 10);
  });
}

TEST(GroupHashTable, CompositeKeys) {
  GroupHashTable t(16, 1, 16);
  uint8_t key[16];
  PackKey(key, 1);
  PackKey(key + 8, 2);
  t.Upsert(key, 0, 0);
  PackKey(key + 8, 3);  // different second component => different group
  t.Upsert(key, 1, 0);
  EXPECT_EQ(t.size(), 2u);
}

TEST(GroupHashTable, FullTableReturnsNull) {
  GroupHashTable t(8, 1, 8);  // capacity 8
  uint8_t key[8];
  AggState* last = nullptr;
  for (int64_t k = 0; k < 9; ++k) {
    PackKey(key, k);
    last = t.Upsert(key, 0, 0);
  }
  EXPECT_EQ(last, nullptr);  // 9th distinct key cannot fit
}

}  // namespace
}  // namespace saber
