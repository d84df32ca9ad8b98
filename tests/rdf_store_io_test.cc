#include "rdf/store_io.h"

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "rdf/mmap_store.h"
#include "rdf/posting_list.h"
#include "stats/catalog.h"
#include "test_util.h"
#include "util/crc32.h"
#include "util/random.h"

namespace specqp {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  EXPECT_TRUE(in.good()) << path;
  const auto size = static_cast<size_t>(in.tellg());
  in.seekg(0);
  std::string blob(size, '\0');
  in.read(blob.data(), static_cast<std::streamsize>(size));
  return blob;
}

void WriteFile(const std::string& path, const std::string& blob) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  ASSERT_TRUE(out.good()) << path;
}

TripleStore SmallStore() {
  TripleStore store;
  store.Add("shakira", "rdf:type", "singer", 100.0);
  store.Add("sting", "rdf:type", "vocalist", 80.0);
  store.Add("shakira", "plays", "guitar", 60.0);
  store.Finalize();
  return store;
}

// Triple arrays and dictionaries of two stores are identical.
void ExpectSameStore(const TripleStore& a, const TripleStore& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.triple(static_cast<uint32_t>(i)),
              b.triple(static_cast<uint32_t>(i)));
  }
  ASSERT_EQ(a.dict().size(), b.dict().size());
  for (TermId id = 0; id < a.dict().size(); ++id) {
    EXPECT_EQ(a.dict().Name(id), b.dict().Name(id));
  }
}

TEST(StoreIoTest, RoundTripSmallStore) {
  TripleStore store;
  store.Add("shakira", "rdf:type", "singer", 100.0);
  store.Add("sting", "rdf:type", "vocalist", 80.0);
  store.Finalize();

  const std::string path = TempPath("small.sqp");
  ASSERT_TRUE(SaveStore(store, path).ok());

  auto loaded = LoadStore(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const TripleStore& copy = loaded.value();
  EXPECT_EQ(copy.size(), store.size());
  EXPECT_EQ(copy.dict().size(), store.dict().size());
  EXPECT_TRUE(copy.Contains(copy.MustId("shakira"), copy.MustId("rdf:type"),
                            copy.MustId("singer")));
  PatternKey key{kInvalidTermId, copy.MustId("rdf:type"),
                 copy.MustId("singer")};
  EXPECT_DOUBLE_EQ(copy.MaxScore(key), 100.0);
}

TEST(StoreIoTest, RoundTripPreservesEverything) {
  Rng rng(99);
  specqp::testing::RandomStoreConfig cfg;
  cfg.num_triples = 500;
  TripleStore store = specqp::testing::MakeRandomStore(&rng, cfg);

  const std::string path = TempPath("random.sqp");
  ASSERT_TRUE(SaveStore(store, path).ok());
  auto loaded = LoadStore(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const TripleStore& copy = loaded.value();

  ASSERT_EQ(copy.size(), store.size());
  for (size_t i = 0; i < store.size(); ++i) {
    const Triple& a = store.triple(static_cast<uint32_t>(i));
    const Triple& b = copy.triple(static_cast<uint32_t>(i));
    EXPECT_EQ(a, b);
  }
  ASSERT_EQ(copy.dict().size(), store.dict().size());
  for (TermId id = 0; id < store.dict().size(); ++id) {
    EXPECT_EQ(copy.dict().Name(id), store.dict().Name(id));
  }
}

TEST(StoreIoTest, RoundTripEmptyStore) {
  TripleStore store;
  store.Finalize();
  const std::string path = TempPath("empty.sqp");
  ASSERT_TRUE(SaveStore(store, path).ok());
  auto loaded = LoadStore(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().size(), 0u);
}

TEST(StoreIoTest, SaveRequiresFinalizedStore) {
  TripleStore store;
  store.Add("a", "p", "x", 1.0);
  const Status s = SaveStore(store, TempPath("unfinalized.sqp"));
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST(StoreIoTest, LoadMissingFileFails) {
  auto r = LoadStore(TempPath("does_not_exist.sqp"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(StoreIoTest, LoadRejectsBadMagic) {
  const std::string path = TempPath("badmagic.sqp");
  std::ofstream out(path, std::ios::binary);
  out << "NOTASTORE-file-content";
  out.close();
  auto r = LoadStore(path);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
}

TEST(StoreIoTest, LoadRejectsTruncatedFile) {
  TripleStore store;
  store.Add("a", "p", "x", 1.0);
  store.Add("b", "p", "y", 2.0);
  store.Finalize();
  const std::string path = TempPath("full.sqp");
  ASSERT_TRUE(SaveStore(store, path).ok());

  // Truncate the file at several points; every prefix must be rejected.
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const auto size = static_cast<size_t>(in.tellg());
  in.seekg(0);
  std::string blob(size, '\0');
  in.read(blob.data(), static_cast<std::streamsize>(size));
  in.close();

  for (size_t cut : {size / 4, size / 2, size - 3}) {
    const std::string cut_path = TempPath("truncated.sqp");
    std::ofstream out(cut_path, std::ios::binary | std::ios::trunc);
    out.write(blob.data(), static_cast<std::streamsize>(cut));
    out.close();
    auto r = LoadStore(cut_path);
    EXPECT_FALSE(r.ok()) << "cut at " << cut;
    EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  }
}

TEST(StoreIoTest, LoadDetectsBitFlip) {
  TripleStore store;
  store.Add("a", "p", "x", 1.0);
  store.Add("b", "q", "y", 2.0);
  store.Finalize();
  const std::string path = TempPath("flip.sqp");
  ASSERT_TRUE(SaveStore(store, path).ok());

  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const auto size = static_cast<size_t>(in.tellg());
  in.seekg(0);
  std::string blob(size, '\0');
  in.read(blob.data(), static_cast<std::streamsize>(size));
  in.close();

  // Flip one payload byte in the middle (inside a section, not the header).
  blob[size / 2] = static_cast<char>(blob[size / 2] ^ 0x40);
  const std::string bad_path = TempPath("flipped.sqp");
  std::ofstream out(bad_path, std::ios::binary);
  out.write(blob.data(), static_cast<std::streamsize>(size));
  out.close();

  auto r = LoadStore(bad_path);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
}

TEST(StoreIoTest, LoadRejectsTrailingGarbage) {
  TripleStore store;
  store.Add("a", "p", "x", 1.0);
  store.Finalize();
  const std::string path = TempPath("trailing.sqp");
  ASSERT_TRUE(SaveStore(store, path).ok());
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out << "extra";
  out.close();
  auto r = LoadStore(path);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
}

TEST(StoreIoTest, LoadedStoreAnswersQueries) {
  Rng rng(1234);
  specqp::testing::RandomStoreConfig cfg;
  cfg.num_triples = 300;
  TripleStore store = specqp::testing::MakeRandomStore(&rng, cfg);
  const std::string path = TempPath("query.sqp");
  ASSERT_TRUE(SaveStore(store, path).ok());
  auto loaded = LoadStore(path);
  ASSERT_TRUE(loaded.ok());

  // Match counts agree on a sample of keys.
  for (int i = 0; i < 20; ++i) {
    const Triple& t =
        store.triple(static_cast<uint32_t>(rng.NextBounded(store.size())));
    PatternKey key{kInvalidTermId, t.p, t.o};
    EXPECT_EQ(loaded.value().CountMatches(key), store.CountMatches(key));
  }
}

// --- mapped (zero-copy) reads ----------------------------------------------

TEST(StoreIoTest, MmapStoreServesQueries) {
  Rng rng(21);
  specqp::testing::RandomStoreConfig cfg;
  cfg.num_triples = 500;
  const TripleStore store = specqp::testing::MakeRandomStore(&rng, cfg);
  const std::string path = TempPath("mmap_query.sqp");
  ASSERT_TRUE(SaveStore(store, path).ok());

  auto mapped = MmapStore::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  const TripleStore& view = mapped.value()->store();
  EXPECT_TRUE(view.is_view());
  EXPECT_TRUE(view.finalized());
  EXPECT_EQ(mapped.value()->bytes_mapped(),
            ReadFile(path).size());
  ExpectSameStore(store, view);

  // Dictionary lookups work without an index build.
  for (TermId id = 0; id < store.dict().size(); ++id) {
    auto found = view.dict().Find(store.dict().Name(id));
    ASSERT_TRUE(found.ok());
    EXPECT_EQ(found.value(), id);
  }
  EXPECT_FALSE(view.dict().Contains("never-interned"));

  // Pattern matching agrees with the owned store on a key sample.
  for (int i = 0; i < 30; ++i) {
    const Triple& t =
        store.triple(static_cast<uint32_t>(rng.NextBounded(store.size())));
    for (const PatternKey& key :
         {PatternKey{t.s, kInvalidTermId, kInvalidTermId},
          PatternKey{kInvalidTermId, t.p, kInvalidTermId},
          PatternKey{kInvalidTermId, t.p, t.o},
          PatternKey{t.s, kInvalidTermId, t.o},
          PatternKey{t.s, t.p, t.o}}) {
      EXPECT_EQ(view.CountMatches(key), store.CountMatches(key));
      EXPECT_DOUBLE_EQ(view.MaxScore(key), store.MaxScore(key));
    }
  }
}

TEST(StoreIoTest, MmapStoreServesBlockPostingsZeroCopy) {
  Rng rng(26);
  specqp::testing::RandomStoreConfig cfg;
  cfg.num_triples = 600;
  const TripleStore store = specqp::testing::MakeRandomStore(&rng, cfg);
  const std::string path = TempPath("mmap_blocks.sqp");
  ASSERT_TRUE(SaveStore(store, path).ok());

  auto mapped = MmapStore::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  const TripleStore& view = mapped.value()->store();
  ASSERT_NE(view.mapped_block_postings(), nullptr);

  // A pure-predicate pattern opens as a block view over the mapped
  // sections, and its decoded entries are bit-identical to a flat build.
  const TermId p = store.MustId("p0");
  const PatternKey key{kInvalidTermId, p, kInvalidTermId};
  const PostingList built = BuildPostingList(store, key);
  const PostingList viewed = BuildPostingList(view, key);
  ASSERT_TRUE(viewed.blocked());
  EXPECT_TRUE(viewed.entries.empty());
  EXPECT_EQ(viewed.blocks->owned_bytes(), 0u) << "expected a zero-copy view";
  ASSERT_EQ(viewed.size(), built.size());
  EXPECT_DOUBLE_EQ(viewed.max_raw_score, built.max_raw_score);
  ASSERT_GT(viewed.blocks->num_blocks(), 1u);
  BlockIterator iter(&viewed);
  for (size_t i = 0; i < built.size(); ++i, iter.Advance()) {
    ASSERT_FALSE(iter.AtEnd());
    const PostingEntry& entry = iter.Entry();
    EXPECT_EQ(entry.triple_index, built.entries[i].triple_index);
    EXPECT_EQ(entry.score, built.entries[i].score);  // lossless codec
  }
  EXPECT_TRUE(iter.AtEnd());

  // Non-directory patterns fall back to the scan-and-sort builder, which
  // re-encodes into owned (non-mapped) blocks on a block-backed store.
  const PatternKey bound{kInvalidTermId, p, store.MustId("o0")};
  const PostingList fallback = BuildPostingList(view, bound);
  ASSERT_TRUE(fallback.blocked());
  EXPECT_GT(fallback.blocks->owned_bytes(), 0u);
  EXPECT_EQ(fallback.size(), BuildPostingList(store, bound).size());
}

TEST(StoreIoTest, MmapStoreOnEmptyStore) {
  TripleStore store;
  store.Finalize();
  const std::string path = TempPath("mmap_empty.sqp");
  ASSERT_TRUE(SaveStore(store, path).ok());
  auto mapped = MmapStore::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(mapped.value()->store().size(), 0u);
  EXPECT_TRUE(mapped.value()->VerifyAllSections().ok());
}

// --- statistics snapshot ----------------------------------------------------

TEST(StoreIoTest, StatsSnapshotRoundTrip) {
  Rng rng(23);
  specqp::testing::RandomStoreConfig cfg;
  cfg.num_triples = 200;
  const TripleStore store = specqp::testing::MakeRandomStore(&rng, cfg);

  PostingListCache postings(&store);
  StatisticsCatalog catalog(&store, &postings, /*head_fraction=*/0.8);
  for (TermId p : {store.MustId("p0"), store.MustId("p1")}) {
    catalog.GetStats(PatternKey{kInvalidTermId, p, kInvalidTermId});
  }

  SaveStoreOptions options;
  options.stats = catalog.Snapshot();
  options.stats_head_fraction = catalog.head_fraction();
  ASSERT_EQ(options.stats.size(), 2u);
  const std::string path = TempPath("stats.sqp");
  ASSERT_TRUE(SaveStore(store, path, options).ok());

  auto mapped = MmapStore::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ASSERT_TRUE(mapped.value()->has_stats());
  EXPECT_DOUBLE_EQ(mapped.value()->stats_head_fraction(), 0.8);
  ASSERT_EQ(mapped.value()->stats_entries().size(), 2u);

  // Preloading a fresh catalog reproduces the memoised stats without
  // touching any posting list.
  PostingListCache fresh_postings(&store);
  StatisticsCatalog fresh(&store, &fresh_postings, 0.8);
  EXPECT_EQ(fresh.Preload(mapped.value()->stats_entries()), 2u);
  EXPECT_EQ(fresh.size(), 2u);
  for (const v3::StatsEntry& row : mapped.value()->stats_entries()) {
    const PatternStats& stats =
        fresh.GetStats(PatternKey{row.s, row.p, row.o});
    EXPECT_EQ(stats.m, row.m);
    EXPECT_DOUBLE_EQ(stats.sigma_r, row.sigma_r);
    EXPECT_DOUBLE_EQ(stats.s_r, row.s_r);
    EXPECT_DOUBLE_EQ(stats.s_m, row.s_m);
  }
  EXPECT_EQ(fresh_postings.misses(), 0u);
}

// --- corruption paths -------------------------------------------------------

TEST(StoreIoTest, StoreRejectsTruncatedSectionTable) {
  const std::string path = TempPath("store_table.sqp");
  ASSERT_TRUE(SaveStore(SmallStore(), path).ok());
  std::string blob = ReadFile(path);

  // Cut inside the section table and patch the header's file size to
  // match, so the cut itself (not the size check) is what gets rejected.
  const size_t cut = sizeof(v3::FileHeader) + sizeof(v3::SectionEntry) / 2;
  std::string truncated = blob.substr(0, cut);
  const uint64_t new_size = truncated.size();
  std::memcpy(truncated.data() + 16, &new_size, 8);  // FileHeader::file_size
  const std::string cut_path = TempPath("store_table_cut.sqp");
  WriteFile(cut_path, truncated);

  auto mapped = MmapStore::Open(cut_path);
  EXPECT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kCorruption);
  auto loaded = LoadStore(cut_path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST(StoreIoTest, StoreRejectsFileSizeMismatch) {
  const std::string path = TempPath("store_size.sqp");
  ASSERT_TRUE(SaveStore(SmallStore(), path).ok());
  const std::string blob = ReadFile(path);
  for (size_t cut : {blob.size() / 3, blob.size() / 2, blob.size() - 1}) {
    const std::string cut_path = TempPath("store_size_cut.sqp");
    WriteFile(cut_path, blob.substr(0, cut));
    auto mapped = MmapStore::Open(cut_path);
    EXPECT_FALSE(mapped.ok()) << "cut at " << cut;
    EXPECT_EQ(mapped.status().code(), StatusCode::kCorruption);
  }
}

TEST(StoreIoTest, StoreRejectsBadSectionCrcLazilyAndEagerly) {
  Rng rng(24);
  specqp::testing::RandomStoreConfig cfg;
  cfg.num_triples = 200;
  const TripleStore store = specqp::testing::MakeRandomStore(&rng, cfg);
  const std::string path = TempPath("store_crc.sqp");
  ASSERT_TRUE(SaveStore(store, path).ok());
  std::string blob = ReadFile(path);

  // Flip one bit in the middle of the triple section's payload.
  const size_t target = blob.size() / 2;
  blob[target] = static_cast<char>(blob[target] ^ 0x10);
  const std::string bad_path = TempPath("store_crc_bad.sqp");
  WriteFile(bad_path, blob);

  // Lazy open succeeds structurally; the memoised checksum pass fails.
  auto lazy = MmapStore::Open(bad_path);
  ASSERT_TRUE(lazy.ok()) << lazy.status().ToString();
  EXPECT_FALSE(lazy.value()->VerifyAllSections().ok());
  EXPECT_FALSE(lazy.value()->VerifyAllSections().ok());  // memoised verdict

  // Eager open and the parsing loader reject outright.
  MmapStore::Options eager;
  eager.verify = MmapStore::Verify::kEager;
  auto strict = MmapStore::Open(bad_path, eager);
  EXPECT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kCorruption);
  auto loaded = LoadStore(bad_path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST(StoreIoTest, StoreRejectsMisalignedSectionOffset) {
  const std::string path = TempPath("store_align.sqp");
  ASSERT_TRUE(SaveStore(SmallStore(), path).ok());
  std::string blob = ReadFile(path);

  // SectionEntry[0].offset lives right after the 40-byte header + 8 bytes
  // of (id, flags). Knock it off the 8-byte grid.
  uint64_t offset = 0;
  std::memcpy(&offset, blob.data() + sizeof(v3::FileHeader) + 8, 8);
  offset += 4;
  std::memcpy(blob.data() + sizeof(v3::FileHeader) + 8, &offset, 8);
  const std::string bad_path = TempPath("store_align_bad.sqp");
  WriteFile(bad_path, blob);

  auto mapped = MmapStore::Open(bad_path);
  EXPECT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kCorruption);
}

// Byte offset of the section-table row for `id`, or npos.
size_t FindTableEntry(const std::string& blob, v3::SectionId id) {
  uint32_t count = 0;
  std::memcpy(&count, blob.data() + 12, 4);  // FileHeader::section_count
  for (uint32_t i = 0; i < count; ++i) {
    const size_t entry = sizeof(v3::FileHeader) + i * sizeof(v3::SectionEntry);
    uint32_t sid = 0;
    std::memcpy(&sid, blob.data() + entry, 4);
    if (sid == static_cast<uint32_t>(id)) return entry;
  }
  return std::string::npos;
}

// Recomputes the stored CRC of `id`'s payload after a test patched it,
// so the corruption under test is the *values*, not the checksum.
void RepairSectionCrc(std::string* blob, v3::SectionId id) {
  const size_t entry = FindTableEntry(*blob, id);
  ASSERT_NE(entry, std::string::npos);
  uint64_t offset = 0;
  uint64_t length = 0;
  std::memcpy(&offset, blob->data() + entry + 8, 8);
  std::memcpy(&length, blob->data() + entry + 16, 8);
  const uint32_t crc = Crc32c(blob->data() + offset, length);
  std::memcpy(blob->data() + entry + 24, &crc, 4);
}

TEST(StoreIoTest, StoreRejectsOverflowingDirectoryCount) {
  const std::string path = TempPath("store_count.sqp");
  ASSERT_TRUE(SaveStore(SmallStore(), path).ok());
  std::string blob = ReadFile(path);

  // A count of 2^59 makes 8 + count*32 wrap back to 8 mod 2^64; the
  // length check must clamp the count instead of overflowing.
  const size_t entry = FindTableEntry(blob, v3::SectionId::kPostingDir);
  ASSERT_NE(entry, std::string::npos);
  uint64_t offset = 0;
  std::memcpy(&offset, blob.data() + entry + 8, 8);
  const uint64_t huge = uint64_t{1} << 59;
  std::memcpy(blob.data() + offset, &huge, 8);
  const std::string bad_path = TempPath("store_count_bad.sqp");
  WriteFile(bad_path, blob);

  auto mapped = MmapStore::Open(bad_path);
  EXPECT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kCorruption);
}

TEST(StoreIoTest, StoreRejectsNonMonotonicDictOffsets) {
  const std::string path = TempPath("store_mono.sqp");
  ASSERT_TRUE(SaveStore(SmallStore(), path).ok());
  std::string blob = ReadFile(path);

  // Swap offsets[1] upward so [1] > [2] while the blob-end entry stays
  // intact, then re-checksum: a crafted file, not a bit flip.
  const size_t entry = FindTableEntry(blob, v3::SectionId::kDictOffsets);
  ASSERT_NE(entry, std::string::npos);
  uint64_t offset = 0;
  std::memcpy(&offset, blob.data() + entry + 8, 8);
  uint64_t off2 = 0;
  std::memcpy(&off2, blob.data() + offset + 16, 8);  // offsets[2]
  const uint64_t bad = off2 + 7;
  std::memcpy(blob.data() + offset + 8, &bad, 8);  // offsets[1]
  RepairSectionCrc(&blob, v3::SectionId::kDictOffsets);
  const std::string bad_path = TempPath("store_mono_bad.sqp");
  WriteFile(bad_path, blob);

  // The engine path (eager metadata verification) must reject with a
  // Status, never CHECK-abort inside Dictionary::Name.
  auto mapped = MmapStore::Open(bad_path);
  ASSERT_TRUE(mapped.ok());  // structural checks alone cannot see this
  EXPECT_FALSE(mapped.value()->VerifyMetadataSections().ok());
  auto loaded = LoadStore(bad_path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST(StoreIoTest, StoreRejectsOutOfRangePermutationIndex) {
  const std::string path = TempPath("store_perm.sqp");
  ASSERT_TRUE(SaveStore(SmallStore(), path).ok());
  std::string blob = ReadFile(path);

  const size_t entry = FindTableEntry(blob, v3::SectionId::kPosIndex);
  ASSERT_NE(entry, std::string::npos);
  uint64_t offset = 0;
  std::memcpy(&offset, blob.data() + entry + 8, 8);
  const uint32_t oob = 0xFFFFFFFFu;
  std::memcpy(blob.data() + offset, &oob, 4);  // pos[0]
  RepairSectionCrc(&blob, v3::SectionId::kPosIndex);
  const std::string bad_path = TempPath("store_perm_bad.sqp");
  WriteFile(bad_path, blob);

  MmapStore::Options eager;
  eager.verify = MmapStore::Verify::kEager;
  auto strict = MmapStore::Open(bad_path, eager);
  EXPECT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kCorruption);
  auto loaded = LoadStore(bad_path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST(StoreIoTest, StoreRejectsUnsortedOrderingInvariants) {
  const std::string path = TempPath("store_order.sqp");
  ASSERT_TRUE(SaveStore(SmallStore(), path).ok());
  std::string bad = ReadFile(path);

  // Swap the first two ids of the lexicographic dictionary permutation
  // and re-checksum: binary-searched Find would silently miss terms.
  const size_t entry = FindTableEntry(bad, v3::SectionId::kDictSorted);
  ASSERT_NE(entry, std::string::npos);
  uint64_t offset = 0;
  std::memcpy(&offset, bad.data() + entry + 8, 8);
  uint32_t a = 0;
  uint32_t b = 0;
  std::memcpy(&a, bad.data() + offset, 4);
  std::memcpy(&b, bad.data() + offset + 4, 4);
  std::memcpy(bad.data() + offset, &b, 4);
  std::memcpy(bad.data() + offset + 4, &a, 4);
  RepairSectionCrc(&bad, v3::SectionId::kDictSorted);
  const std::string bad_path = TempPath("store_order_dict.sqp");
  WriteFile(bad_path, bad);

  auto lazy = MmapStore::Open(bad_path);
  ASSERT_TRUE(lazy.ok());
  EXPECT_FALSE(lazy.value()->VerifyMetadataSections().ok());
  EXPECT_FALSE(LoadStore(bad_path).ok());
}

TEST(StoreIoTest, StoreRejectsReservedBitsAndUnknownSections) {
  const std::string path = TempPath("store_reserved.sqp");
  ASSERT_TRUE(SaveStore(SmallStore(), path).ok());
  const std::string blob = ReadFile(path);

  {
    // Nonzero flags word in the first table row.
    std::string bad = blob;
    const uint32_t flags = 1;
    std::memcpy(bad.data() + sizeof(v3::FileHeader) + 4, &flags, 4);
    const std::string bad_path = TempPath("store_reserved_flags.sqp");
    WriteFile(bad_path, bad);
    EXPECT_FALSE(MmapStore::Open(bad_path).ok());
  }
  // Unknown section ids in the first table row: the retired flat
  // posting-entries id, and one the format never defined.
  for (const uint32_t id : {9u, 999u}) {
    std::string bad = blob;
    std::memcpy(bad.data() + sizeof(v3::FileHeader), &id, 4);
    const std::string bad_path = TempPath("store_reserved_id.sqp");
    WriteFile(bad_path, bad);
    auto mapped = MmapStore::Open(bad_path);
    EXPECT_FALSE(mapped.ok()) << "section id " << id;
    EXPECT_EQ(mapped.status().code(), StatusCode::kCorruption);
  }
}

TEST(StoreIoTest, StoreRejectsNonFiniteStatsValues) {
  // A statistics snapshot whose values would CHECK-fail the planner's
  // histograms (NaN knots, negative densities) must be rejected as
  // Corruption when the section is verified — which Engine::OpenFromPath
  // does eagerly — instead of aborting at the first Spec-QP query.
  specqp::testing::MusicFixture fx = specqp::testing::MakeMusicFixture();
  Engine engine(&fx.store, &fx.rules);
  const QueryResponse planned = engine.Explain(
      QueryRequest::FromQuery(fx.TypeQuery({"singer", "lyricist"}), 10));
  ASSERT_TRUE(planned.ok());
  SaveStoreOptions options;
  options.stats = engine.catalog().Snapshot();
  options.stats_head_fraction = engine.catalog().head_fraction();
  ASSERT_FALSE(options.stats.empty());
  const std::string path = TempPath("stats_values.sqp");
  ASSERT_TRUE(SaveStore(fx.store, path, options).ok());
  const std::string blob = ReadFile(path);
  {
    auto opened = Engine::OpenFromPath(path, &fx.rules);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  }

  const size_t entry = FindTableEntry(blob, v3::SectionId::kStats);
  ASSERT_NE(entry, std::string::npos);
  uint64_t section = 0;
  std::memcpy(&section, blob.data() + entry + 8, 8);
  const size_t row0 = section + 16;  // past head_fraction and count
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const struct {
    const char* what;
    size_t offset;  // into the section payload's first bytes or row 0
    double value;
  } cases[] = {
      {"NaN head_fraction", section, nan},
      {"head_fraction 1", section, 1.0},
      {"head_fraction 0", section, 0.0},
      {"NaN sigma_r", row0 + offsetof(v3::StatsEntry, sigma_r), nan},
      {"NaN s_r", row0 + offsetof(v3::StatsEntry, s_r), nan},
      {"NaN s_m", row0 + offsetof(v3::StatsEntry, s_m), nan},
      {"infinite s_m", row0 + offsetof(v3::StatsEntry, s_m), inf},
      {"sigma_r above 1", row0 + offsetof(v3::StatsEntry, sigma_r), 1.5},
      {"negative sigma_r", row0 + offsetof(v3::StatsEntry, sigma_r), -0.25},
      {"negative s_r", row0 + offsetof(v3::StatsEntry, s_r), -1.0},
      {"s_r above s_m", row0 + offsetof(v3::StatsEntry, s_r), 1e9},
  };
  const auto expect_rejected = [&](const std::string& bad,
                                   const std::string& what) {
    const std::string bad_path = TempPath("stats_values_bad.sqp");
    WriteFile(bad_path, bad);
    // The structural open cannot see values; the section verdict can.
    auto mapped = MmapStore::Open(bad_path);
    ASSERT_TRUE(mapped.ok()) << what;
    const Status verified =
        mapped.value()->VerifySection(v3::SectionId::kStats);
    EXPECT_EQ(verified.code(), StatusCode::kCorruption) << what;
    auto opened = Engine::OpenFromPath(bad_path, &fx.rules);
    EXPECT_FALSE(opened.ok()) << what;
    EXPECT_EQ(opened.status().code(), StatusCode::kCorruption) << what;
  };
  for (const auto& c : cases) {
    std::string bad = blob;
    std::memcpy(bad.data() + c.offset, &c.value, 8);
    RepairSectionCrc(&bad, v3::SectionId::kStats);
    expect_rejected(bad, c.what);
  }
  {
    std::string bad = blob;
    const uint32_t reserved = 1;
    std::memcpy(bad.data() + row0 + offsetof(v3::StatsEntry, reserved),
                &reserved, 4);
    RepairSectionCrc(&bad, v3::SectionId::kStats);
    expect_rejected(bad, "nonzero reserved word");
  }
}

// --- block posting corruption paths -----------------------------------------

// A store whose posting lists span multiple blocks, so directory rows
// address real block runs worth corrupting.
std::string SaveMultiBlockV3(const char* name) {
  Rng rng(27);
  specqp::testing::RandomStoreConfig cfg;
  cfg.num_triples = 600;
  const TripleStore store = specqp::testing::MakeRandomStore(&rng, cfg);
  const std::string path = TempPath(name);
  EXPECT_TRUE(SaveStore(store, path).ok());
  return path;
}

struct SectionExtent {
  uint64_t offset = 0;
  uint64_t length = 0;
};

SectionExtent FindSectionExtent(const std::string& blob, v3::SectionId id) {
  const size_t entry = FindTableEntry(blob, id);
  EXPECT_NE(entry, std::string::npos);
  SectionExtent extent;
  std::memcpy(&extent.offset, blob.data() + entry + 8, 8);
  std::memcpy(&extent.length, blob.data() + entry + 16, 8);
  return extent;
}

TEST(StoreIoTest, V3RejectsTruncatedBlockPayload) {
  const std::string path = SaveMultiBlockV3("v3_trunc.sqp");
  std::string blob = ReadFile(path);

  // Shrink the last block's byte_length so the concatenated block ranges
  // no longer cover the payload section (-9 survives the 8-byte AlignUp
  // padding), then re-checksum the index: the open-time geometry pass must
  // reject before any decode touches the short payload.
  const SectionExtent index =
      FindSectionExtent(blob, v3::SectionId::kPostingBlockIndex);
  const uint64_t total_blocks = index.length / sizeof(PostingBlockHeader);
  ASSERT_GT(total_blocks, 1u);
  const size_t last =
      index.offset + (total_blocks - 1) * sizeof(PostingBlockHeader);
  uint32_t byte_length = 0;
  std::memcpy(&byte_length, blob.data() + last + 8, 4);
  ASSERT_GT(byte_length, 9u);
  byte_length -= 9;
  std::memcpy(blob.data() + last + 8, &byte_length, 4);
  RepairSectionCrc(&blob, v3::SectionId::kPostingBlockIndex);
  const std::string bad_path = TempPath("v3_trunc_bad.sqp");
  WriteFile(bad_path, blob);

  auto mapped = MmapStore::Open(bad_path);
  EXPECT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kCorruption);
  auto loaded = LoadStore(bad_path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST(StoreIoTest, V3RejectsHeaderOffsetsPastSection) {
  const std::string path = SaveMultiBlockV3("v3_offsets.sqp");
  const std::string blob = ReadFile(path);
  const SectionExtent index =
      FindSectionExtent(blob, v3::SectionId::kPostingBlockIndex);
  const SectionExtent payload =
      FindSectionExtent(blob, v3::SectionId::kPostingBlocks);

  {
    // First header's byte_offset points past the end of the payload
    // section: any dereference would read out of bounds.
    std::string bad = blob;
    std::memcpy(bad.data() + index.offset, &payload.length, 8);
    RepairSectionCrc(&bad, v3::SectionId::kPostingBlockIndex);
    const std::string bad_path = TempPath("v3_offsets_begin.sqp");
    WriteFile(bad_path, bad);
    auto mapped = MmapStore::Open(bad_path);
    EXPECT_FALSE(mapped.ok());
    EXPECT_EQ(mapped.status().code(), StatusCode::kCorruption);
  }
  {
    // First header's byte_length overruns the section end.
    std::string bad = blob;
    const uint32_t huge = static_cast<uint32_t>(payload.length) + 64;
    std::memcpy(bad.data() + index.offset + 8, &huge, 4);
    RepairSectionCrc(&bad, v3::SectionId::kPostingBlockIndex);
    const std::string bad_path = TempPath("v3_offsets_len.sqp");
    WriteFile(bad_path, bad);
    auto mapped = MmapStore::Open(bad_path);
    EXPECT_FALSE(mapped.ok());
    EXPECT_EQ(mapped.status().code(), StatusCode::kCorruption);
  }
}

TEST(StoreIoTest, V3RejectsMaxScoreInconsistentWithContents) {
  const std::string path = SaveMultiBlockV3("v3_ceiling.sqp");
  std::string blob = ReadFile(path);

  // Nudge the LAST block's ceiling down one IEEE-754 ulp: still in [0, 1],
  // still below the previous block's ceiling, so every open-time geometry
  // check passes — only decoding the block can see that max_score is no
  // longer bit-equal to its first entry's score.
  const SectionExtent index =
      FindSectionExtent(blob, v3::SectionId::kPostingBlockIndex);
  const uint64_t total_blocks = index.length / sizeof(PostingBlockHeader);
  const size_t last =
      index.offset + (total_blocks - 1) * sizeof(PostingBlockHeader);
  uint64_t bits = 0;
  std::memcpy(&bits, blob.data() + last + 16, 8);
  ASSERT_NE(bits, 0u);  // normalised scores are positive
  bits -= 1;
  std::memcpy(blob.data() + last + 16, &bits, 8);
  RepairSectionCrc(&blob, v3::SectionId::kPostingBlockIndex);
  const std::string bad_path = TempPath("v3_ceiling_bad.sqp");
  WriteFile(bad_path, blob);

  // Lazy open succeeds structurally; the decode-validating verification
  // pass and the eager readers reject with a Status, never a crash.
  auto lazy = MmapStore::Open(bad_path);
  ASSERT_TRUE(lazy.ok()) << lazy.status().ToString();
  EXPECT_FALSE(lazy.value()->VerifyAllSections().ok());
  MmapStore::Options eager;
  eager.verify = MmapStore::Verify::kEager;
  auto strict = MmapStore::Open(bad_path, eager);
  EXPECT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kCorruption);
  auto loaded = LoadStore(bad_path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST(StoreIoTest, V3RejectsMisalignedBlockBoundaries) {
  const std::string path = SaveMultiBlockV3("v3_boundary.sqp");
  std::string blob = ReadFile(path);

  // Find a directory row spanning several blocks; declaring its first
  // block short would misalign every boundary after it.
  const SectionExtent dir = FindSectionExtent(blob, v3::SectionId::kPostingDir);
  uint64_t dir_count = 0;
  std::memcpy(&dir_count, blob.data() + dir.offset, 8);
  uint64_t block_begin = 0;
  bool found = false;
  for (uint64_t i = 0; i < dir_count && !found; ++i) {
    const size_t row = dir.offset + 8 + i * sizeof(v3::BlockPostingDirEntry);
    uint64_t block_count = 0;
    std::memcpy(&block_begin, blob.data() + row + 8, 8);
    std::memcpy(&block_count, blob.data() + row + 16, 8);
    found = block_count >= 2;
  }
  ASSERT_TRUE(found) << "no multi-block posting list in the fixture";

  const SectionExtent index =
      FindSectionExtent(blob, v3::SectionId::kPostingBlockIndex);
  // In range (so the entry-count check passes) but not a full block: the
  // misaligned-boundary check must catch it.
  const uint16_t short_count = 33;
  std::memcpy(
      blob.data() + index.offset + block_begin * sizeof(PostingBlockHeader) + 12,
      &short_count, 2);
  RepairSectionCrc(&blob, v3::SectionId::kPostingBlockIndex);
  const std::string bad_path = TempPath("v3_boundary_bad.sqp");
  WriteFile(bad_path, blob);

  auto mapped = MmapStore::Open(bad_path);
  EXPECT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kCorruption);
  auto loaded = LoadStore(bad_path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST(StoreIoTest, V3OmitsSpoIndexAndSynthesisesIt) {
  Rng rng(28);
  specqp::testing::RandomStoreConfig cfg;
  cfg.num_triples = 600;
  const TripleStore store = specqp::testing::MakeRandomStore(&rng, cfg);
  const std::string path = TempPath("v3_no_spo.sqp");
  ASSERT_TRUE(SaveStore(store, path).ok());

  // The section is genuinely absent from the file (id 5, retired, held the
  // stored SPO permutation)...
  constexpr uint32_t kRetiredSpoIndexId = 5;
  const std::string blob = ReadFile(path);
  EXPECT_EQ(
      FindTableEntry(blob, static_cast<v3::SectionId>(kRetiredSpoIndexId)),
      std::string::npos);

  // ...and subject-bound lookups (the SPO index's consumers) still agree
  // with the in-memory store through the synthesised identity view.
  auto mapped = MmapStore::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  const TripleStore& view = mapped.value()->store();
  size_t checked = 0;
  for (uint32_t i = 0; i < store.size(); i += 37) {
    const Triple& t = store.triples()[i];
    const PatternKey by_subject{t.s, kInvalidTermId, kInvalidTermId};
    EXPECT_EQ(view.CountMatches(by_subject), store.CountMatches(by_subject));
    EXPECT_TRUE(view.Contains(t.s, t.p, t.o));
    ++checked;
  }
  EXPECT_GT(checked, 0u);

  // A file that does carry the redundant section is malformed.
  std::string padded = blob;
  // Graft a fake SPO table entry by flipping an existing section's id; the
  // simpler, spec-level contract is just that Open rejects the combination,
  // exercised via the pos-index row.
  const size_t pos_entry = FindTableEntry(padded, v3::SectionId::kPosIndex);
  ASSERT_NE(pos_entry, std::string::npos);
  std::memcpy(padded.data() + pos_entry, &kRetiredSpoIndexId, 4);
  const std::string bad_path = TempPath("v3_with_spo.sqp");
  WriteFile(bad_path, padded);
  auto rejected = MmapStore::Open(bad_path);
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace specqp
