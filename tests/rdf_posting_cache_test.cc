// Tests for the PostingListCache eviction policy (budgeted sharded LRU)
// and the counter-reset semantics of Clear().

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rdf/posting_list.h"
#include "rdf/triple_store.h"

namespace specqp {
namespace {

// A store with `num_objects` distinct (p, o) pattern keys, each matching
// exactly `triples_per_object` triples — many small posting lists, ideal
// for exercising eviction churn.
TripleStore MakeWideStore(size_t num_objects, size_t triples_per_object = 1) {
  TripleStore store;
  for (size_t o = 0; o < num_objects; ++o) {
    for (size_t t = 0; t < triples_per_object; ++t) {
      store.Add("s" + std::to_string(o) + "_" + std::to_string(t), "p",
                "o" + std::to_string(o), 1.0 + static_cast<double>(t));
    }
  }
  store.Finalize();
  return store;
}

PatternKey KeyFor(const TripleStore& store, size_t object_index) {
  return PatternKey{kInvalidTermId, store.MustId("p"),
                    store.MustId("o" + std::to_string(object_index))};
}

TEST(PostingCacheClearTest, ClearResetsCounters) {
  // Regression: Clear() used to drop the lists but keep hits_/misses_, so
  // hit rates measured across warm/cold bench phases were wrong.
  TripleStore store = MakeWideStore(4);
  PostingListCache cache(&store);
  (void)cache.Get(KeyFor(store, 0));
  (void)cache.Get(KeyFor(store, 0));
  (void)cache.Get(KeyFor(store, 1));
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 1u);

  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_EQ(cache.evictions(), 0u);

  // The post-Clear phase counts from zero: one cold miss, one warm hit.
  (void)cache.Get(KeyFor(store, 0));
  (void)cache.Get(KeyFor(store, 0));
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(PostingCacheEvictionTest, BudgetRespectedUnderChurn) {
  TripleStore store = MakeWideStore(256);
  const size_t budget = 8 * 1024;
  PostingListCache cache(&store, budget);
  for (int round = 0; round < 3; ++round) {
    for (size_t o = 0; o < 256; ++o) {
      auto list = cache.Get(KeyFor(store, o));
      ASSERT_EQ(list->size(), 1u);
      // `list` is dropped here, so nothing stays pinned between Gets.
    }
    EXPECT_LE(cache.bytes(), budget) << "round " << round;
  }
  EXPECT_GT(cache.evictions(), 0u);
  EXPECT_LT(cache.size(), 256u);
}

TEST(PostingCacheEvictionTest, UnboundedByDefault) {
  TripleStore store = MakeWideStore(64);
  PostingListCache cache(&store);
  for (size_t o = 0; o < 64; ++o) (void)cache.Get(KeyFor(store, o));
  EXPECT_EQ(cache.size(), 64u);
  EXPECT_EQ(cache.evictions(), 0u);
}

TEST(PostingCacheEvictionTest, PinnedListsSurviveEviction) {
  TripleStore store = MakeWideStore(128);
  // A budget of 1 byte forces every unpinned list out.
  PostingListCache cache(&store, 1);
  auto pinned = cache.Get(KeyFor(store, 0));
  for (size_t o = 1; o < 128; ++o) (void)cache.Get(KeyFor(store, o));
  // The pinned list must still be resident: getting it again is a hit and
  // returns the same object.
  const uint64_t hits_before = cache.hits();
  auto again = cache.Get(KeyFor(store, 0));
  EXPECT_EQ(cache.hits(), hits_before + 1);
  EXPECT_EQ(pinned.get(), again.get());
  EXPECT_EQ(pinned->size(), 1u);
}

TEST(PostingCacheEvictionTest, EvictedListStaysUsableThroughSharedPtr) {
  TripleStore store = MakeWideStore(64, 3);
  PostingListCache cache(&store, 1);
  auto held = cache.Get(KeyFor(store, 0));
  // Drop the pin and churn: the entry is now evictable.
  std::shared_ptr<const PostingList> weak_copy = held;
  held.reset();
  for (size_t o = 1; o < 64; ++o) (void)cache.Get(KeyFor(store, o));
  // Whatever the cache did, the surviving shared_ptr still reads fine.
  ASSERT_EQ(weak_copy->size(), 3u);
  EXPECT_DOUBLE_EQ(weak_copy->entries[0].score, 1.0);
}

TEST(PostingCacheEvictionTest, LruOrderEvictsColdestFirst) {
  TripleStore store = MakeWideStore(32);
  PostingListCache cache(&store, 1);
  // Two keys in (usually) different shards; regardless of sharding, after
  // churning every other key, re-getting an old key must be a miss if it
  // was evicted — and the counters must reflect exactly one outcome.
  (void)cache.Get(KeyFor(store, 0));
  for (size_t o = 1; o < 32; ++o) (void)cache.Get(KeyFor(store, o));
  const uint64_t gets_before = cache.hits() + cache.misses();
  (void)cache.Get(KeyFor(store, 0));
  EXPECT_EQ(cache.hits() + cache.misses(), gets_before + 1);
  // With a 1-byte budget nothing unpinned survives, so this was a miss.
  EXPECT_GT(cache.evictions(), 0u);
}

TEST(PostingCachePartitionsTest, MemoisedAcrossCalls) {
  TripleStore store = MakeWideStore(4, 8);
  PostingListCache cache(&store);
  const PatternKey key = KeyFor(store, 0);
  const auto first = cache.GetPartitions(key, /*slot=*/0, 4);
  ASSERT_EQ(first.size(), 4u);
  const uint64_t misses_after_first = cache.misses();
  const auto second = cache.GetPartitions(key, 0, 4);
  EXPECT_EQ(cache.misses(), misses_after_first) << "second call must hit";
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(first[i].get(), second[i].get());
  }
  // A different partition count is a different memo entry.
  const auto other = cache.GetPartitions(key, 0, 2);
  EXPECT_EQ(other.size(), 2u);
  EXPECT_GT(cache.misses(), misses_after_first);
}

TEST(PostingCachePartitionsTest, PiecesFormTheFullList) {
  TripleStore store = MakeWideStore(3, 10);
  PostingListCache cache(&store);
  const PatternKey key = KeyFor(store, 1);
  const auto full = cache.Get(key);
  const auto pieces = cache.GetPartitions(key, 0, 3);
  size_t total = 0;
  for (const auto& piece : pieces) total += piece->size();
  EXPECT_EQ(total, full->size());
}

TEST(PostingCachePartitionsTest, CountTowardsBudgetAndClear) {
  TripleStore store = MakeWideStore(16, 4);
  PostingListCache cache(&store);
  const size_t before = cache.bytes();
  (void)cache.GetPartitions(KeyFor(store, 0), 0, 4);
  EXPECT_GT(cache.bytes(), before) << "pieces must be accounted";
  cache.Clear();
  EXPECT_EQ(cache.bytes(), 0u);
  // And they are evictable: a tiny budget churns them out.
  PostingListCache bounded(&store, 1);
  for (size_t o = 0; o < 16; ++o) (void)bounded.GetPartitions(KeyFor(store, o), 0, 4);
  EXPECT_GT(bounded.evictions(), 0u);
  EXPECT_LE(bounded.bytes(), 4096u);  // only the most recent survivors
}

TEST(PostingCachePeekTest, PeekNeverBuilds) {
  TripleStore store = MakeWideStore(8, 4);
  PostingListCache cache(&store);
  const PatternKey key = KeyFor(store, 3);
  EXPECT_EQ(cache.Peek(key), nullptr);
  EXPECT_EQ(cache.misses(), 0u) << "Peek must not build or count";
  EXPECT_EQ(cache.size(), 0u);

  // Once resident, Peek returns the list Get inserted, still uncounted.
  const auto list = cache.Get(key);
  EXPECT_EQ(cache.Peek(key).get(), list.get());
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 1u);
}

// Builds a store where object 0 has one big (expensive-to-rebuild) posting
// list and every other object one tiny list, and returns `count` tiny-list
// keys that land in the same cache shard as the big key (so the per-shard
// budget arbitrates between them deterministically).
std::vector<PatternKey> SameShardSmallKeys(const TripleStore& store,
                                           const PatternKey& big,
                                           size_t count) {
  const size_t shard =
      PatternKeyHash{}(big) % PostingListCache::kNumShards;
  std::vector<PatternKey> keys;
  for (size_t o = 1; keys.size() < count; ++o) {
    const PatternKey key = KeyFor(store, o);
    if (PatternKeyHash{}(key) % PostingListCache::kNumShards == shard) {
      keys.push_back(key);
    }
  }
  return keys;
}

TEST(PostingCacheCostAwareTest, ExpensiveListOutlivesCheaperMoreRecent) {
  // Object 0: 512 triples (expensive to rebuild); objects 1..: 1 triple.
  TripleStore store;
  for (int t = 0; t < 512; ++t) {
    store.Add("s0_" + std::to_string(t), "p", "o0", 1.0 + t);
  }
  for (int o = 1; o < 64; ++o) {
    store.Add("s" + std::to_string(o), "p", "o" + std::to_string(o), 1.0);
  }
  store.Finalize();
  const PatternKey big = KeyFor(store, 0);
  const std::vector<PatternKey> small = SameShardSmallKeys(store, big, 2);

  // Budget the big key's shard to hold the big list plus one small list,
  // but not both smalls on top.
  const size_t big_bytes =
      PostingListCache::ApproxBytes(BuildPostingList(store, big));
  const size_t small_bytes =
      PostingListCache::ApproxBytes(BuildPostingList(store, small[0]));
  const size_t budget =
      PostingListCache::kNumShards * (big_bytes + small_bytes + 8);

  // Plain LRU: the big list is the coldest entry, so it is the victim —
  // despite costing ~500x more to rebuild than the small list it makes
  // room for.
  {
    PostingListCache lru(&store, budget, /*cost_aware=*/false);
    (void)lru.Get(big);
    (void)lru.Get(small[0]);
    (void)lru.Get(small[1]);  // over budget -> evict
    EXPECT_EQ(lru.Peek(big), nullptr) << "LRU evicts the cold big list";
    EXPECT_GT(lru.evictions(), 0u);
  }

  // Cost-aware: the cheap small list goes instead, and the expensive list
  // outlives the cheaper, more recently used one.
  {
    PostingListCache cost(&store, budget, /*cost_aware=*/true);
    (void)cost.Get(big);
    (void)cost.Get(small[0]);
    (void)cost.Get(small[1]);  // over budget -> evict
    EXPECT_NE(cost.Peek(big), nullptr)
        << "cost-aware keeps the expensive list";
    EXPECT_EQ(cost.Peek(small[0]), nullptr)
        << "the cheaper, more recent list is the victim";
    EXPECT_GT(cost.evictions(), 0u);
    // Re-getting the survivor is a hit.
    const uint64_t hits_before = cost.hits();
    (void)cost.Get(big);
    EXPECT_EQ(cost.hits(), hits_before + 1);
  }
}

TEST(PostingCacheEvictionTest, CountersMonotoneUnderChurn) {
  TripleStore store = MakeWideStore(64);
  PostingListCache cache(&store, 2 * 1024);
  uint64_t prev_hits = 0;
  uint64_t prev_misses = 0;
  uint64_t prev_evictions = 0;
  uint64_t gets = 0;
  for (int round = 0; round < 4; ++round) {
    for (size_t o = 0; o < 64; ++o) {
      (void)cache.Get(KeyFor(store, o));
      ++gets;
      const uint64_t h = cache.hits();
      const uint64_t m = cache.misses();
      const uint64_t e = cache.evictions();
      EXPECT_GE(h, prev_hits);
      EXPECT_GE(m, prev_misses);
      EXPECT_GE(e, prev_evictions);
      EXPECT_EQ(h + m, gets);
      prev_hits = h;
      prev_misses = m;
      prev_evictions = e;
    }
  }
}

}  // namespace
}  // namespace specqp
