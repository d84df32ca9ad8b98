// Tests for the batch-scoped SharedScanCache and the derivation path of
// PostingListCache::Resolve behind it: derived object lists must be
// bit-identical to directly built ones (the batch-vs-sequential determinism
// of BatchExecutor rests on this), the cost gate must only derive when a
// shared pass undercuts per-key builds, resident lists must be pinned
// rather than derived again, and derived lists must enter the engine cache
// through its one insert step.

#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rdf/posting_list.h"
#include "rdf/shared_scan_cache.h"
#include "rdf/triple_store.h"
#include "test_util.h"
#include "util/fault_injector.h"
#include "util/random.h"

namespace specqp {
namespace {

using specqp::testing::MakeRandomStore;
using specqp::testing::RandomStoreConfig;

void ExpectSameList(const PostingList& a, const PostingList& b,
                    const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  EXPECT_EQ(a.max_raw_score, b.max_raw_score) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.entries[i].triple_index, b.entries[i].triple_index)
        << label << " entry " << i;
    EXPECT_EQ(a.entries[i].score, b.entries[i].score) << label << " entry "
                                                      << i;
  }
}

TEST(SharedScanDeriveTest, DerivedListsBitIdenticalToBuiltLists) {
  for (int seed = 0; seed < 6; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) * 104729 + 7);
    RandomStoreConfig cfg;
    cfg.num_subjects = 40;
    cfg.num_predicates = 3;
    cfg.num_objects = 9;
    cfg.num_triples = 400;
    TripleStore store = MakeRandomStore(&rng, cfg);

    std::vector<TermId> objects;
    for (size_t o = 0; o < cfg.num_objects; ++o) {
      objects.push_back(store.MustId("o" + std::to_string(o)));
    }
    for (size_t p = 0; p < cfg.num_predicates; ++p) {
      const TermId pid = store.MustId("p" + std::to_string(p));
      const PostingList base =
          BuildPostingList(store, PatternKey{kInvalidTermId, pid,
                                             kInvalidTermId});
      // All siblings from one pass, and one object on its own.
      const std::vector<PostingList> derived =
          DeriveObjectLists(store, base, objects);
      ASSERT_EQ(derived.size(), objects.size());
      const std::vector<PostingList> single =
          DeriveObjectLists(store, base, std::span(objects).subspan(3, 1));
      for (size_t o = 0; o < cfg.num_objects; ++o) {
        const PatternKey key{kInvalidTermId, pid, objects[o]};
        const PostingList built = BuildPostingList(store, key);
        const std::string label = "seed=" + std::to_string(seed) + " p" +
                                  std::to_string(p) + " o" +
                                  std::to_string(o);
        ExpectSameList(built, derived[o], label);
        if (o == 3) ExpectSameList(built, single[0], label + " alone");
      }
    }
  }
}

TEST(SharedScanCacheTest, PrepareResolvesOnceAndGetHits) {
  Rng rng(99);
  RandomStoreConfig cfg;
  TripleStore store = MakeRandomStore(&rng, cfg);
  PostingListCache base(&store);
  SharedScanCache shared(&base);

  const TermId p0 = store.MustId("p0");
  std::vector<PatternKey> keys;
  for (int o = 0; o < 4; ++o) {
    keys.push_back(PatternKey{kInvalidTermId, p0,
                              store.MustId("o" + std::to_string(o))});
  }
  // Duplicate requests in the prepare list collapse.
  keys.push_back(keys[0]);
  shared.Prepare(keys);

  auto counters = shared.counters();
  EXPECT_EQ(counters.resolved_lists, 4u);
  EXPECT_EQ(counters.hits, 0u);

  // Every Get of a prepared key is a shared-scan hit returning the same
  // pinned list.
  const auto first = shared.Get(keys[0]);
  const auto second = shared.Get(keys[0]);
  EXPECT_EQ(first.get(), second.get());
  counters = shared.counters();
  EXPECT_EQ(counters.hits, 2u);
  EXPECT_EQ(counters.misses, 0u);

  // And it matches a direct build.
  ExpectSameList(*first, BuildPostingList(store, keys[0]), "prepared get");

  // A second Prepare with the same keys resolves nothing new.
  shared.Prepare(keys);
  EXPECT_EQ(shared.counters().resolved_lists, 4u);
}

TEST(SharedScanCacheTest, UnpreparedKeyFallsThroughAndMemoises) {
  Rng rng(123);
  TripleStore store = MakeRandomStore(&rng, RandomStoreConfig());
  PostingListCache base(&store);
  SharedScanCache shared(&base);

  const PatternKey key{kInvalidTermId, store.MustId("p1"),
                       store.MustId("o2")};
  const auto list = shared.Get(key);
  ASSERT_NE(list, nullptr);
  auto counters = shared.counters();
  EXPECT_EQ(counters.hits, 0u);
  EXPECT_EQ(counters.misses, 1u);
  // Memoised: the second Get is a hit on the same list.
  EXPECT_EQ(shared.Get(key).get(), list.get());
  EXPECT_EQ(shared.counters().hits, 1u);
}

// 16 object lists of 48 triples each under one predicate "p": sizeable
// enough that one shared pass undercuts 16 per-key builds.
TripleStore MakeSiblingStore() {
  TripleStore store;
  for (int o = 0; o < 16; ++o) {
    for (int t = 0; t < 48; ++t) {
      store.Add("s" + std::to_string(o) + "_" + std::to_string(t), "p",
                "o" + std::to_string(o), 1.0 + t);
    }
  }
  store.Finalize();
  return store;
}

std::vector<PatternKey> SiblingKeys(const TripleStore& store) {
  const TermId p = store.MustId("p");
  std::vector<PatternKey> keys;
  for (int o = 0; o < 16; ++o) {
    keys.push_back(PatternKey{kInvalidTermId, p,
                              store.MustId("o" + std::to_string(o))});
  }
  return keys;
}

TEST(SharedScanCacheTest, DerivesSiblingsWhenBaseIsResident) {
  // Many sizeable object lists under one predicate, with the base list
  // already resident: one shared pass must serve them all, and the derived
  // lists must enter the base cache.
  const TripleStore store = MakeSiblingStore();
  PostingListCache base(&store);
  (void)base.Get(PatternKey{kInvalidTermId, store.MustId("p"),
                            kInvalidTermId});  // warm the base

  SharedScanCache shared(&base);
  const std::vector<PatternKey> keys = SiblingKeys(store);
  shared.Prepare(keys);

  const auto counters = shared.counters();
  EXPECT_EQ(counters.resolved_lists, 16u);
  EXPECT_EQ(counters.derived_lists, 16u);
  EXPECT_EQ(counters.base_scans, 1u);

  for (const PatternKey& key : keys) {
    // Resident in the base cache for post-batch reuse...
    EXPECT_NE(base.Peek(key), nullptr);
    // ...and bit-identical to a direct build.
    ExpectSameList(*shared.Get(key), BuildPostingList(store, key),
                   "derived sibling");
  }
}

TEST(SharedScanCacheTest, DerivedListsAliasTheBaseCacheResident) {
  // The batch map and the base cache must pin one object per key: two
  // copies would double the memory and break the "same object for the
  // whole batch" guarantee.
  const TripleStore store = MakeSiblingStore();
  PostingListCache base(&store);
  (void)base.Get(
      PatternKey{kInvalidTermId, store.MustId("p"), kInvalidTermId});

  SharedScanCache shared(&base);
  const std::vector<PatternKey> keys = SiblingKeys(store);
  shared.Prepare(keys);
  ASSERT_EQ(shared.counters().derived_lists, 16u);

  for (const PatternKey& key : keys) {
    EXPECT_EQ(shared.Get(key).get(), base.Peek(key).get())
        << "batch map and base cache pin different objects";
  }
}

TEST(SharedScanCacheTest, ResidentSiblingsArePinnedNotDerivedAgain) {
  // A later batch over siblings the engine cache already holds (the warm
  // batch of a serving loop) must pin the residents as they are: no base
  // scan, no derivation, and the very objects the engine cache holds.
  const TripleStore store = MakeSiblingStore();
  PostingListCache base(&store);
  (void)base.Get(
      PatternKey{kInvalidTermId, store.MustId("p"), kInvalidTermId});
  const std::vector<PatternKey> keys = SiblingKeys(store);
  {
    SharedScanCache first(&base);
    first.Prepare(keys);
    ASSERT_EQ(first.counters().derived_lists, 16u);
  }
  const uint64_t hits_before = base.hits();
  const uint64_t misses_before = base.misses();

  SharedScanCache second(&base);
  second.Prepare(keys);
  const auto counters = second.counters();
  EXPECT_EQ(counters.resolved_lists, 16u);
  EXPECT_EQ(counters.derived_lists, 0u);
  EXPECT_EQ(counters.base_scans, 0u);
  // Each resident counts one engine-cache hit; nothing is built.
  EXPECT_EQ(base.hits(), hits_before + 16);
  EXPECT_EQ(base.misses(), misses_before);
  for (const PatternKey& key : keys) {
    const auto resident = base.Peek(key);
    ASSERT_NE(resident, nullptr);
    EXPECT_EQ(second.Get(key).get(), resident.get());
  }
}

TEST(SharedScanCacheTest, FailedInsertsStillServeDerivedLists) {
  // Derived lists take the engine cache's one insert step, so an injected
  // "cache.alloc" fault keeps them out of the cache — while the batch is
  // still served the derived group, bit-identical to direct builds.
  const TripleStore store = MakeSiblingStore();
  PostingListCache base(&store);
  (void)base.Get(
      PatternKey{kInvalidTermId, store.MustId("p"), kInvalidTermId});
  const std::vector<PatternKey> keys = SiblingKeys(store);

  ASSERT_TRUE(FaultInjector::Global().Configure("cache.alloc=1").ok());
  SharedScanCache shared(&base);
  shared.Prepare(keys);
  FaultInjector::Global().Disarm();

  const auto counters = shared.counters();
  EXPECT_EQ(counters.resolved_lists, 16u);
  EXPECT_EQ(counters.derived_lists, 16u);
  EXPECT_EQ(counters.base_scans, 1u);
  EXPECT_EQ(base.size(), 1u) << "only the warmed base list is resident";
  for (const PatternKey& key : keys) {
    EXPECT_EQ(base.Peek(key), nullptr);
    ExpectSameList(*shared.Get(key), BuildPostingList(store, key),
                   "derived under cache.alloc");
  }
  EXPECT_EQ(shared.counters().misses, 0u);
}

TEST(SharedScanCacheTest, CostGateSkipsDerivationForFewSmallKeys) {
  // Two tiny object lists under a large, cold predicate: a shared pass
  // (which would have to build the whole base list first) cannot pay off,
  // so Prepare must resolve them directly.
  TripleStore store;
  for (int t = 0; t < 4096; ++t) {
    store.Add("s" + std::to_string(t), "p", "bulk" + std::to_string(t % 509),
              1.0 + t);
  }
  store.Add("x0", "p", "rare0", 5.0);
  store.Add("x1", "p", "rare1", 6.0);
  store.Finalize();
  const TermId p = store.MustId("p");

  PostingListCache base(&store);
  SharedScanCache shared(&base);
  const std::vector<PatternKey> keys = {
      PatternKey{kInvalidTermId, p, store.MustId("rare0")},
      PatternKey{kInvalidTermId, p, store.MustId("rare1")},
  };
  shared.Prepare(keys);
  const auto counters = shared.counters();
  EXPECT_EQ(counters.resolved_lists, 2u);
  EXPECT_EQ(counters.derived_lists, 0u);
  EXPECT_EQ(counters.base_scans, 0u);
}

TEST(SharedScanCacheTest, PinsResolvedListsAgainstEviction) {
  // A tiny budget evicts everything unpinned from the base cache — but the
  // shared cache's references keep the batch's lists alive and stable.
  TripleStore store;
  for (int o = 0; o < 32; ++o) {
    store.Add("s" + std::to_string(o), "p", "o" + std::to_string(o), 1.0);
  }
  store.Finalize();
  const TermId p = store.MustId("p");

  PostingListCache base(&store, /*budget_bytes=*/1);
  SharedScanCache shared(&base);
  std::vector<PatternKey> keys;
  for (int o = 0; o < 32; ++o) {
    keys.push_back(PatternKey{kInvalidTermId, p,
                              store.MustId("o" + std::to_string(o))});
  }
  shared.Prepare(keys);
  const auto held = shared.Get(keys[0]);
  // Churn the base cache; the held list must stay readable and Get must
  // keep returning the same object.
  for (const PatternKey& key : keys) (void)base.Get(key);
  EXPECT_EQ(shared.Get(keys[0]).get(), held.get());
  EXPECT_EQ(held->size(), 1u);
}

}  // namespace
}  // namespace specqp
