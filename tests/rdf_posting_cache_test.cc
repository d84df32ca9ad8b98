// Tests for the PostingListCache eviction policy (one budgeted LRU over
// lists and piece sets), the counter-reset semantics of Clear(), builds
// outside the lock, and a concurrent stress mix.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <latch>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "rdf/mmap_store.h"
#include "rdf/posting_list.h"
#include "rdf/posting_partition.h"
#include "rdf/store_io.h"
#include "rdf/triple_store.h"
#include "test_util.h"
#include "util/random.h"

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

// Lists pinned while the cache is trimmed hold it over budget; once the
// pins drop, the next call on any key trims the whole cache back.
TEST(PostingCacheEvictionTest, BudgetHoldsOnceThePinsDrop) {
  TripleStore store = MakeWideStore(256, 4);
  PostingListCache cache(&store, /*budget_bytes=*/8 * 1024);
  std::vector<std::shared_ptr<const PostingList>> pins;
  for (size_t o = 0; o < 255; ++o) pins.push_back(cache.Get(KeyFor(store, o)));
  ASSERT_GT(cache.bytes(), cache.budget_bytes());
  pins.clear();
  (void)cache.Get(KeyFor(store, 255));
  EXPECT_LE(cache.bytes(), cache.budget_bytes());
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
  // After churning every other key, re-getting an old key must be a miss
  // if it was evicted — and the counters must reflect exactly one outcome.
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
  const PatternKey small[] = {KeyFor(store, 1), KeyFor(store, 2)};

  // Budget the cache to hold the big list plus one small list, but not
  // both smalls on top.
  const size_t big_bytes =
      PostingListCache::ApproxBytes(BuildPostingList(store, big));
  const size_t small_bytes =
      PostingListCache::ApproxBytes(BuildPostingList(store, small[0]));
  const size_t budget = big_bytes + small_bytes + 8;

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

// Serves an in-memory store as a sharded source whose Match for one key
// blocks until released: a build of that key then stalls inside the cache.
class BlockingSource : public ShardedTripleSource {
 public:
  BlockingSource(const TripleStore* inner, const PatternKey& slow)
      : inner_(inner), slow_(slow) {}

  size_t NumTriples() const override { return inner_->size(); }
  const Triple& TripleAt(uint32_t global_index) const override {
    return inner_->triple(global_index);
  }
  // Only the first read of the slow key blocks.
  std::span<const uint32_t> Match(const PatternKey& key) const override {
    if (key == slow_ && !blocked_once_.exchange(true)) {
      entered_.count_down();
      release_.wait();
    }
    return inner_->MatchIndices(key);
  }

  void WaitUntilBlocked() const { entered_.wait(); }
  void Release() const { release_.count_down(); }

 private:
  const TripleStore* inner_;
  const PatternKey slow_;
  mutable std::atomic<bool> blocked_once_{false};
  mutable std::latch entered_{1};
  mutable std::latch release_{1};
};

void ExpectSameEntries(const PostingList& expected, const PostingList& actual,
                       const std::string& label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  EXPECT_EQ(actual.max_raw_score, expected.max_raw_score) << label;
  BlockIterator e(&expected);
  BlockIterator a(&actual);
  for (; !e.AtEnd(); e.Advance(), a.Advance()) {
    ASSERT_EQ(a.Entry().triple_index, e.Entry().triple_index) << label;
    ASSERT_EQ(a.Entry().score, e.Entry().score) << label;  // bitwise
  }
}

// A build runs with the cache's lock released: while one key's build is
// stalled, other keys build and hit, Peek answers and the counters read.
// A Clear() during that build does not wait for it, and the list the
// build produces is served to its caller but not inserted.
TEST(PostingCacheConcurrencyTest, SlowBuildHoldsNoOtherKeyAndClearDropsIt) {
  const TripleStore inner = MakeWideStore(16, 4);
  const PatternKey slow = KeyFor(inner, 0);
  const BlockingSource source(&inner, slow);
  Dictionary dict;
  for (TermId id = 0; id < inner.dict().size(); ++id) {
    dict.Intern(inner.dict().Name(id));
  }
  const TripleStore store =
      TripleStore::FromShardedSource(std::move(dict), &source);
  PostingListCache cache(&store);
  const auto bounded = std::chrono::seconds(10);

  auto stalled = std::async(std::launch::async, [&] { return cache.Get(slow); });
  source.WaitUntilBlocked();

  auto others = std::async(std::launch::async, [&] {
    for (size_t o = 1; o < 16; ++o) {
      const PatternKey key = KeyFor(store, o);
      const auto built = cache.Get(key);
      EXPECT_EQ(cache.Peek(key).get(), built.get());
      EXPECT_EQ(cache.Get(key).get(), built.get());
    }
    EXPECT_EQ(cache.Peek(slow), nullptr);
    return cache.hits();
  });
  const bool others_done = others.wait_for(bounded) == std::future_status::ready;
  EXPECT_TRUE(others_done) << "other keys waited for a stalled build";

  auto cleared = std::async(std::launch::async, [&] { cache.Clear(); });
  const bool clear_done =
      cleared.wait_for(bounded) == std::future_status::ready;
  EXPECT_TRUE(clear_done) << "Clear() waited for a stalled build";

  source.Release();
  const std::shared_ptr<const PostingList> list = stalled.get();
  cleared.get();
  EXPECT_EQ(others.get(), 15u);
  ASSERT_NE(list, nullptr);
  ExpectSameEntries(BuildPostingList(store, slow), *list, "stalled build");

  // The build straddled the Clear(): served, never inserted.
  EXPECT_EQ(cache.Peek(slow), nullptr);
  const uint64_t misses = cache.misses();
  const auto again = cache.Get(slow);
  EXPECT_EQ(cache.misses(), misses + 1);
  EXPECT_NE(again.get(), list.get());
}

// Eight threads mix every entry point over one budgeted cache on a mapped
// store (block views, re-encoded scans, derived flat lists, piece sets):
// every list served is the list BuildPostingList builds, and once the
// threads are gone one more call trims the cache within budget.
TEST(PostingCacheConcurrencyTest, MixedCallsServeBuiltListsWithinBudget) {
  Rng rng(91);
  specqp::testing::RandomStoreConfig cfg;
  cfg.num_subjects = 200;
  cfg.num_predicates = 4;
  cfg.num_objects = 12;
  cfg.num_triples = 3000;
  const TripleStore memory = specqp::testing::MakeRandomStore(&rng, cfg);
  const std::string path = ::testing::TempDir() + "/posting_cache_mix.sqp";
  ASSERT_TRUE(SaveStore(memory, path).ok());
  auto mapped = MmapStore::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  const TripleStore& store = mapped.value()->store();

  // Every predicate's base key and its object-bound siblings.
  std::map<TermId, std::vector<PatternKey>> siblings;
  std::vector<PatternKey> keys;
  for (uint32_t i = 0; i < store.size(); ++i) {
    const Triple& t = store.triple(i);
    const PatternKey key{kInvalidTermId, t.p, t.o};
    std::vector<PatternKey>& group = siblings[t.p];
    if (std::find(group.begin(), group.end(), key) == group.end()) {
      group.push_back(key);
      keys.push_back(key);
    }
  }
  for (const auto& [p, group] : siblings) {
    keys.push_back(PatternKey{kInvalidTermId, p, kInvalidTermId});
  }
  std::map<std::tuple<TermId, TermId, TermId>, PostingList> reference;
  for (const PatternKey& key : keys) {
    reference.emplace(std::make_tuple(key.s, key.p, key.o),
                      BuildPostingList(store, key));
  }
  const auto expect_built = [&](const PatternKey& key,
                                const PostingList& list) {
    ExpectSameEntries(reference.at(std::make_tuple(key.s, key.p, key.o)),
                      list, "served list");
  };

  PostingListCache cache(&store, /*budget_bytes=*/16 * 1024);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 300;
  std::atomic<uint64_t> derived{0};
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng ops(1000 + static_cast<uint64_t>(t));
      start.arrive_and_wait();
      for (int i = 0; i < kOpsPerThread; ++i) {
        const PatternKey& key = keys[ops.NextBounded(keys.size())];
        switch (ops.NextBounded(10)) {
          case 0:
          case 1:
          case 2: {
            const auto list = cache.Get(key);
            expect_built(key, *list);
            break;
          }
          case 3:
          case 4: {
            const uint32_t n = 2 + static_cast<uint32_t>(ops.NextBounded(3));
            const auto pieces = cache.GetPartitions(key, /*slot=*/0, n);
            const auto want = PartitionPostingList(
                store, reference.at(std::make_tuple(key.s, key.p, key.o)), 0,
                n);
            ASSERT_EQ(pieces.size(), want.size());
            for (size_t i = 0; i < want.size(); ++i) {
              ExpectSameEntries(*want[i], *pieces[i], "piece");
            }
            break;
          }
          case 5:
          case 6:
          case 7: {
            // One predicate's siblings (derivable) plus a random key.
            auto group = siblings.begin();
            std::advance(group, ops.NextBounded(siblings.size()));
            std::vector<PatternKey> batch = group->second;
            batch.push_back(key);
            PostingListCache::Pins pins;
            PostingListCache::ResolveCounts counts;
            cache.Resolve(batch, &pins, &counts);
            derived += counts.derived_lists;
            for (const PatternKey& pinned : batch) {
              expect_built(pinned, *pins.at(pinned));
            }
            break;
          }
          case 8: {
            if (const auto list = cache.Peek(key)) expect_built(key, *list);
            break;
          }
          default:
            if (ops.NextBounded(8) == 0) cache.Clear();
            break;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_GT(derived.load(), 0u) << "no Resolve derived its siblings";

  (void)cache.Get(keys.front());
  EXPECT_LE(cache.bytes(), cache.budget_bytes());
}

}  // namespace
}  // namespace specqp
