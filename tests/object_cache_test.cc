#include "client/object_cache.h"

#include <gtest/gtest.h>

namespace idba {
namespace {

DatabaseObject MakeObj(uint64_t oid, size_t payload_bytes) {
  DatabaseObject obj(Oid(oid), 1, 1);
  obj.Set(0, Value(std::string(payload_bytes, 'c')));
  return obj;
}

TEST(ObjectCacheTest, PutGetRoundTrip) {
  ObjectCache cache;
  cache.Put(MakeObj(1, 10));
  auto got = cache.Get(Oid(1));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->oid(), Oid(1));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_FALSE(cache.Get(Oid(2)).has_value());
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(ObjectCacheTest, PutOverwritesAndReaccounts) {
  ObjectCache cache;
  cache.Put(MakeObj(1, 10));
  size_t small = cache.bytes_used();
  cache.Put(MakeObj(1, 1000));
  EXPECT_EQ(cache.entry_count(), 1u);
  EXPECT_GT(cache.bytes_used(), small);
}

TEST(ObjectCacheTest, LruEvictionByBytes) {
  ObjectCache cache(ObjectCacheOptions{.capacity_bytes = 2000});
  std::vector<Oid> evicted;
  cache.set_eviction_callback([&](Oid oid) { evicted.push_back(oid); });
  cache.Put(MakeObj(1, 800));
  cache.Put(MakeObj(2, 800));
  cache.Put(MakeObj(3, 800));  // over budget: 1 is LRU
  EXPECT_FALSE(cache.Contains(Oid(1)));
  EXPECT_TRUE(cache.Contains(Oid(2)));
  EXPECT_TRUE(cache.Contains(Oid(3)));
  EXPECT_EQ(evicted, std::vector<Oid>{Oid(1)});
  EXPECT_GE(cache.evictions(), 1u);
}

TEST(ObjectCacheTest, GetRefreshesLruPosition) {
  ObjectCache cache(ObjectCacheOptions{.capacity_bytes = 2000});
  cache.Put(MakeObj(1, 800));
  cache.Put(MakeObj(2, 800));
  ASSERT_TRUE(cache.Get(Oid(1)).has_value());  // 1 becomes MRU
  cache.Put(MakeObj(3, 800));                  // evicts 2, not 1
  EXPECT_TRUE(cache.Contains(Oid(1)));
  EXPECT_FALSE(cache.Contains(Oid(2)));
}

TEST(ObjectCacheTest, InvalidateRemovesCopy) {
  ObjectCache cache;
  cache.Put(MakeObj(1, 10));
  cache.InvalidateCached(Oid(1), 7);
  EXPECT_FALSE(cache.Contains(Oid(1)));
  EXPECT_EQ(cache.invalidations(), 1u);
  // Invalidating a non-cached object is a no-op.
  cache.InvalidateCached(Oid(99), 1);
  EXPECT_EQ(cache.invalidations(), 1u);
}

TEST(ObjectCacheTest, DropAndClear) {
  ObjectCache cache;
  cache.Put(MakeObj(1, 10));
  cache.Put(MakeObj(2, 10));
  cache.Drop(Oid(1));
  EXPECT_FALSE(cache.Contains(Oid(1)));
  EXPECT_EQ(cache.invalidations(), 0u);  // Drop is not a protocol event
  cache.Clear();
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_EQ(cache.bytes_used(), 0u);
}

TEST(ObjectCacheTest, BytesAccountingConsistent) {
  ObjectCache cache;
  cache.Put(MakeObj(1, 100));
  cache.Put(MakeObj(2, 200));
  size_t before = cache.bytes_used();
  cache.Drop(Oid(1));
  EXPECT_LT(cache.bytes_used(), before);
  cache.Drop(Oid(2));
  EXPECT_EQ(cache.bytes_used(), 0u);
}

TEST(ObjectCacheTest, NeverEvictsTheOnlyEntry) {
  // Even an oversized single object stays (eviction keeps >= 1 entry so a
  // fetched object can always be used).
  ObjectCache cache(ObjectCacheOptions{.capacity_bytes = 100});
  cache.Put(MakeObj(1, 5000));
  EXPECT_TRUE(cache.Contains(Oid(1)));
}

TEST(ObjectCacheTest, FillWindowDropsImageInvalidatedInFlight) {
  ObjectCache cache;
  ObjectCache::FillWindow fill(cache);
  cache.InvalidateCached(Oid(1), 2);  // no entry yet: nothing to drop...
  fill.Put(MakeObj(1, 10));           // ...but the late image is refused
  EXPECT_FALSE(cache.Contains(Oid(1)));
  fill.Put(MakeObj(2, 10));  // other oids are unaffected
  EXPECT_TRUE(cache.Contains(Oid(2)));
}

TEST(ObjectCacheTest, FillWindowIgnoresInvalidationsBeforeItOpened) {
  ObjectCache cache;
  ObjectCache::FillWindow earlier(cache);
  cache.InvalidateCached(Oid(1), 2);
  // A fill that starts after the callback reads at least that version.
  ObjectCache::FillWindow later(cache);
  later.Put(MakeObj(1, 10));
  EXPECT_TRUE(cache.Contains(Oid(1)));
  // The earlier fill's image is refused.
  cache.Drop(Oid(1));
  earlier.Put(MakeObj(1, 10));
  EXPECT_FALSE(cache.Contains(Oid(1)));
}

TEST(ObjectCacheTest, FillWindowDropsEverythingAfterClear) {
  ObjectCache cache;
  ObjectCache::FillWindow fill(cache);
  cache.Clear();
  fill.Put(MakeObj(1, 10));
  EXPECT_FALSE(cache.Contains(Oid(1)));
}

TEST(ObjectCacheTest, NoMarksOutliveTheLastFillWindow) {
  ObjectCache cache;
  { ObjectCache::FillWindow fill(cache); }
  cache.InvalidateCached(Oid(1), 2);  // no window open: not remembered
  cache.Clear();
  ObjectCache::FillWindow fill(cache);
  fill.Put(MakeObj(1, 10));
  EXPECT_TRUE(cache.Contains(Oid(1)));
}

}  // namespace
}  // namespace idba
