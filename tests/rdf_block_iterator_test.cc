// BlockIterator over block-compressed posting lists: every traversal must
// observe exactly the entries a flat scan observes (the codec is lossless,
// the headers are exact summaries), and the cache must be able to release
// decoded blocks without invalidating live readers.

#include "rdf/posting_list.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rdf/mmap_store.h"
#include "rdf/posting_blocks.h"
#include "rdf/store_io.h"
#include "test_util.h"
#include "util/random.h"

namespace specqp {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

// Synthetic posting entries: descending normalised scores with tie runs
// (ties cost one payload byte and put equal scores on block boundaries),
// ids drawn from [0, id_limit).
std::vector<PostingEntry> MakeEntries(Rng* rng, size_t count,
                                      uint32_t id_limit) {
  std::vector<PostingEntry> entries;
  entries.reserve(count);
  double score = 1.0;
  for (size_t i = 0; i < count; ++i) {
    if (rng->NextBounded(4) != 0 || i == 0) {
      score *= 0.75 + 0.25 * rng->NextDouble();  // strictly below previous
    }  // else: tie with the previous entry
    PostingEntry e;
    e.triple_index = static_cast<uint32_t>(rng->NextBounded(id_limit));
    e.score = score;
    entries.push_back(e);
  }
  // Enforce the list invariant: score desc, triple index asc on ties.
  std::sort(entries.begin(), entries.end(),
            [](const PostingEntry& a, const PostingEntry& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.triple_index < b.triple_index;
            });
  return entries;
}

PostingList BlockListOf(const std::vector<PostingEntry>& entries,
                        uint32_t id_limit) {
  EncodedPostingBlocks encoded =
      EncodePostingBlocks(entries.data(), entries.size());
  return PostingList::FromBlocks(std::move(encoded.headers),
                                 std::move(encoded.payload), entries.size(),
                                 /*max_raw_score=*/1.0, id_limit);
}

TEST(BlockIteratorTest, RoundTripsBitIdenticalToFlat) {
  Rng rng(31);
  const uint32_t id_limit = 100000;
  // Sizes straddling every block-boundary shape: empty, single entry,
  // one-under/exact/one-over a block, an exact multiple, and a large list.
  constexpr size_t kN = kPostingBlockEntries;
  for (const size_t count :
       {size_t{0}, size_t{1}, kN - 1, kN, kN + 1, 3 * kN, size_t{1000}}) {
    const std::vector<PostingEntry> entries = MakeEntries(&rng, count, id_limit);
    const PostingList list = BlockListOf(entries, id_limit);
    ASSERT_TRUE(list.blocked());
    ASSERT_EQ(list.size(), count);
    EXPECT_TRUE(list.entries.empty());

    uint64_t decoded = 0;
    uint64_t skipped = 0;
    BlockIterator iter(&list, &decoded, &skipped);
    for (size_t i = 0; i < count; ++i, iter.Advance()) {
      ASSERT_FALSE(iter.AtEnd()) << "count " << count << " index " << i;
      EXPECT_EQ(iter.position(), i);
      EXPECT_EQ(iter.PeekScore(), entries[i].score);  // bitwise
      const PostingEntry& entry = iter.Entry();
      EXPECT_EQ(entry.triple_index, entries[i].triple_index);
      EXPECT_EQ(entry.score, entries[i].score);  // bitwise
    }
    EXPECT_TRUE(iter.AtEnd());
    EXPECT_EQ(decoded, list.blocks->num_blocks());
    EXPECT_EQ(skipped, 0u);
  }
}

TEST(BlockIteratorTest, RoundTripsOverRandomMappedStores) {
  for (const uint32_t seed : {41u, 42u, 43u}) {
    Rng rng(seed);
    specqp::testing::RandomStoreConfig cfg;
    cfg.num_triples = 200 + 300 * seed;  // spans one- and multi-block lists
    const TripleStore store = specqp::testing::MakeRandomStore(&rng, cfg);
    const std::string path =
        TempPath(("block_roundtrip_" + std::to_string(seed) + ".sqp").c_str());
    ASSERT_TRUE(SaveStore(store, path).ok());
    auto mapped = MmapStore::Open(path);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

    for (size_t p = 0; p < cfg.num_predicates; ++p) {
      const PatternKey key{kInvalidTermId,
                           store.MustId("p" + std::to_string(p)),
                           kInvalidTermId};
      const PostingList flat = BuildPostingList(store, key);
      const PostingList blocked = BuildPostingList(mapped.value()->store(), key);
      ASSERT_TRUE(blocked.blocked());
      ASSERT_EQ(blocked.size(), flat.size());
      EXPECT_EQ(blocked.max_raw_score, flat.max_raw_score);  // bitwise
      BlockIterator iter(&blocked);
      for (size_t i = 0; i < flat.size(); ++i, iter.Advance()) {
        ASSERT_FALSE(iter.AtEnd());
        const PostingEntry& entry = iter.Entry();
        EXPECT_EQ(entry.triple_index, flat.entries[i].triple_index);
        EXPECT_EQ(entry.score, flat.entries[i].score);  // bitwise
      }
      EXPECT_TRUE(iter.AtEnd());
    }
  }
}

TEST(BlockIteratorTest, CacheReleasesDecodedBlocksUnderOneBlockBudget) {
  Rng rng(57);
  specqp::testing::RandomStoreConfig cfg;
  cfg.num_triples = 4000;  // ~1000 entries per predicate => ~8 blocks
  const TripleStore store = specqp::testing::MakeRandomStore(&rng, cfg);
  const std::string path = TempPath("block_evict.sqp");
  ASSERT_TRUE(SaveStore(store, path).ok());
  auto mapped = MmapStore::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  const TripleStore& view = mapped.value()->store();

  // Budget one decoded block (plus fixed overheads): a fully decoded
  // multi-block list must overflow it and get its memo released.
  const size_t one_block =
      sizeof(PostingList) + sizeof(PostingBlockSource) +
      kPostingBlockEntries * sizeof(PostingEntry) + 1024;
  PostingListCache cache(&view, one_block);

  const PatternKey key{kInvalidTermId, view.MustId("p0"), kInvalidTermId};
  std::shared_ptr<const PostingList> list = cache.Get(key);
  ASSERT_TRUE(list->blocked());
  ASSERT_GE(list->blocks->num_blocks(), 2u);
  EXPECT_EQ(list->blocks->decoded_bytes(), 0u);  // nothing decoded yet

  // Reference copy of the full list before any eviction runs.
  std::vector<PostingEntry> reference;
  for (BlockIterator iter(list.get()); !iter.AtEnd(); iter.Advance()) {
    reference.push_back(iter.Entry());
  }
  ASSERT_GT(list->blocks->decoded_bytes(), one_block);

  // Park a reader mid-block, then trigger the eviction pass: the decoded
  // memo is released block-granularly even though the list is pinned.
  BlockIterator reader(list.get());
  for (int i = 0; i < 5; ++i) reader.Advance();
  const PostingEntry before = reader.Entry();
  const uint64_t evictions_before = cache.evictions();
  std::shared_ptr<const PostingList> again = cache.Get(key);
  EXPECT_EQ(again.get(), list.get());  // release, not eviction of the list
  EXPECT_EQ(list->blocks->decoded_bytes(), 0u);
  EXPECT_GT(cache.evictions(), evictions_before);

  // The parked reader still sees its block (shared_ptr snapshot), and a
  // fresh traversal re-decodes to bit-identical entries.
  EXPECT_EQ(reader.Entry().triple_index, before.triple_index);
  EXPECT_EQ(reader.Entry().score, before.score);
  size_t i = 5;
  for (; !reader.AtEnd(); reader.Advance(), ++i) {
    ASSERT_LT(i, reference.size());
    EXPECT_EQ(reader.Entry().triple_index, reference[i].triple_index);
    EXPECT_EQ(reader.Entry().score, reference[i].score);
  }
  EXPECT_EQ(i, reference.size());
}

TEST(BlockIteratorTest, SkipAllChargesRemainingBlocksAsSkipped) {
  Rng rng(58);
  const std::vector<PostingEntry> entries = MakeEntries(&rng, 300, 10000);
  const PostingList list = BlockListOf(entries, 10000);
  uint64_t decoded = 0;
  uint64_t skipped = 0;
  BlockIterator iter(&list, &decoded, &skipped);
  iter.Entry();  // materialise block 0
  iter.SkipAll();
  EXPECT_TRUE(iter.AtEnd());
  EXPECT_EQ(decoded, 1u);
  EXPECT_EQ(decoded + skipped, list.blocks->num_blocks());
}

TEST(BlockIteratorTest, LookAheadNeverDecodes) {
  Rng rng(59);
  constexpr size_t kN = kPostingBlockEntries;
  const std::vector<PostingEntry> entries = MakeEntries(&rng, 3 * kN, 10000);
  constexpr size_t kDistance = 8;

  // Flat list: every in-range position can be addressed.
  PostingList flat;
  flat.entries = entries;
  BlockIterator flat_iter(&flat);
  ASSERT_NE(flat_iter.LookAhead(kDistance), nullptr);
  EXPECT_EQ(flat_iter.LookAhead(kDistance)->triple_index,
            entries[kDistance].triple_index);
  EXPECT_EQ(flat_iter.LookAhead(entries.size() - 1), &flat.entries.back());
  EXPECT_EQ(flat_iter.LookAhead(entries.size()), nullptr);

  const PostingList list = BlockListOf(entries, 10000);
  uint64_t decoded = 0;
  uint64_t skipped = 0;
  BlockIterator iter(&list, &decoded, &skipped);
  // On an undecoded block boundary there is no materialised block yet.
  EXPECT_EQ(iter.LookAhead(kDistance), nullptr);
  EXPECT_EQ(decoded, 0u);

  // Inside the materialised block 0.
  iter.Entry();
  ASSERT_EQ(decoded, 1u);
  const PostingEntry* ahead = iter.LookAhead(kDistance);
  ASSERT_NE(ahead, nullptr);
  EXPECT_EQ(ahead->triple_index, entries[kDistance].triple_index);
  EXPECT_EQ(ahead->score, entries[kDistance].score);

  // The last entries of block 0: the look-ahead lands in undecoded block 1.
  for (size_t i = 0; i < kN - kDistance; ++i) iter.Advance();
  ASSERT_EQ(iter.position(), kN - kDistance);
  ASSERT_NE(iter.LookAhead(kDistance - 1), nullptr);
  EXPECT_EQ(iter.LookAhead(kDistance - 1)->triple_index,
            entries[kN - 1].triple_index);
  for (size_t i = 0; i < kDistance; ++i, iter.Advance()) {
    EXPECT_EQ(iter.LookAhead(kDistance), nullptr) << "position " << i;
  }
  EXPECT_EQ(decoded, 1u);
  EXPECT_EQ(skipped, 0u);

  // Past the end of the list.
  iter.Entry();
  EXPECT_EQ(decoded, 2u);
  EXPECT_EQ(iter.LookAhead(2 * kN), nullptr);
  EXPECT_EQ(decoded, 2u);
  EXPECT_EQ(skipped, 0u);
}

}  // namespace
}  // namespace specqp
