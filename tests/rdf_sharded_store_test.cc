// Sharded store bundles (SQPBNDL1): round-trips through WriteShardBundle /
// ShardedStore::Open, scatter-gather equivalence against the source store,
// and a hostile-input battery — truncated or patched manifests, missing /
// extra / duplicated shard files, a retired store format, digest
// disagreements, wrong-shard placements, cross-shard duplicates. Every
// hostile case must come back as a structured Status::Corruption (or
// IoError for a missing manifest), never a crash — these suites run under
// ASan/UBSan in CI.

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rdf/sharded_store.h"
#include "rdf/store_io.h"
#include "test_util.h"
#include "util/crc32.h"
#include "util/random.h"

namespace specqp {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const char* name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

TripleStore MakeStore(uint64_t seed = 99, size_t triples = 3000) {
  Rng rng(seed);
  specqp::testing::RandomStoreConfig cfg;
  cfg.num_subjects = 120;
  cfg.num_predicates = 6;
  cfg.num_objects = 25;
  cfg.num_triples = triples;
  return specqp::testing::MakeRandomStore(&rng, cfg);
}

// Overwrites `count` bytes at `offset` with `value` XORed in (so the patch
// always changes the byte).
void FlipByte(const std::string& path, uint64_t offset) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.is_open()) << path;
  f.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  ASSERT_TRUE(f.read(&byte, 1).good());
  byte ^= 0x5A;
  f.seekp(static_cast<std::streamoff>(offset));
  ASSERT_TRUE(f.write(&byte, 1).good());
}

// Rewrites the manifest's trailing CRC so deliberate header/entry patches
// test the *semantic* validation, not just the checksum.
void ResealManifest(const std::string& dir) {
  const std::string path = dir + "/" + bundle::kManifestFileName;
  std::ifstream in(path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GE(bytes.size(), sizeof(uint32_t));
  const uint32_t crc =
      Crc32c(bytes.data(), bytes.size() - sizeof(uint32_t));
  std::memcpy(bytes.data() + bytes.size() - sizeof(uint32_t), &crc,
              sizeof(crc));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()))
          .good());
}

void ExpectCorruption(const std::string& dir, const char* label,
                      MmapStore::Verify verify = MmapStore::Verify::kLazy) {
  ShardedStore::Options options;
  options.verify = verify;
  auto opened = ShardedStore::Open(dir, options);
  ASSERT_FALSE(opened.ok()) << label;
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption)
      << label << ": " << opened.status().ToString();
}

// ---------------------------------------------------------------------------
// Round trips.
// ---------------------------------------------------------------------------

class ShardedRoundTripTest
    : public ::testing::TestWithParam<
          std::tuple<uint32_t, bundle::HashScheme>> {};

TEST_P(ShardedRoundTripTest, FacadeMatchesSourceStoreExactly) {
  const auto [shard_count, scheme] = GetParam();
  const TripleStore store = MakeStore();
  const std::string dir = FreshDir("sharded_roundtrip");

  ShardBundleOptions options;
  options.shard_count = shard_count;
  options.scheme = scheme;
  ASSERT_TRUE(WriteShardBundle(store, dir, options).ok());
  EXPECT_TRUE(IsBundlePath(dir));
  EXPECT_TRUE(IsBundlePath(dir + "/" + bundle::kManifestFileName));

  auto opened = ShardedStore::Open(dir);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const ShardedStore& sharded = *opened.value();
  EXPECT_EQ(sharded.shard_count(), shard_count);
  EXPECT_EQ(sharded.scheme(), scheme);
  EXPECT_GT(sharded.bytes_mapped(), 0u);

  // The facade's global index space is the merged SPO order — identical
  // to the source store's own finalized SPO order, triple for triple.
  const TripleStore& facade = sharded.store();
  ASSERT_TRUE(facade.is_sharded());
  ASSERT_EQ(facade.size(), store.size());
  for (uint32_t i = 0; i < store.size(); ++i) {
    EXPECT_EQ(facade.triple(i), store.triples()[i]) << "global index " << i;
  }
  EXPECT_EQ(facade.dict().size(), store.dict().size());

  // MatchIndices over the facade returns the same global indices in the
  // same order for every route (full scan, s-, p-, o-, and combinations).
  Rng rng(7);
  std::vector<PatternKey> keys = {PatternKey{}};  // full scan
  for (int i = 0; i < 40; ++i) {
    const Triple& t = store.triples()[rng.NextBounded(store.size())];
    keys.push_back(PatternKey{t.s, kInvalidTermId, kInvalidTermId});
    keys.push_back(PatternKey{kInvalidTermId, t.p, kInvalidTermId});
    keys.push_back(PatternKey{kInvalidTermId, kInvalidTermId, t.o});
    keys.push_back(PatternKey{kInvalidTermId, t.p, t.o});
    keys.push_back(PatternKey{t.s, kInvalidTermId, t.o});
    keys.push_back(PatternKey{t.s, t.p, t.o});
  }
  for (const PatternKey& key : keys) {
    const auto expect = store.MatchIndices(key);
    const auto got = facade.MatchIndices(key);
    ASSERT_EQ(got.size(), expect.size());
    for (size_t i = 0; i < expect.size(); ++i) {
      EXPECT_EQ(got[i], expect[i]);
    }
  }

  // The gather ledger saw every scatter (one per unique key per shard).
  uint64_t patterns = 0;
  for (const auto& c : sharded.Counters()) {
    patterns += c.patterns_scattered;
  }
  EXPECT_GT(patterns, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Bundles, ShardedRoundTripTest,
    ::testing::Values(std::make_tuple(2u, bundle::HashScheme::kSubject),
                      std::make_tuple(8u, bundle::HashScheme::kSubject),
                      std::make_tuple(3u, bundle::HashScheme::kPredicate),
                      std::make_tuple(4u, bundle::HashScheme::kSubject)));

TEST(ShardedStoreTest, EagerVerifyAcceptsWellFormedBundle) {
  const TripleStore store = MakeStore();
  const std::string dir = FreshDir("sharded_eager_ok");
  ASSERT_TRUE(WriteShardBundle(store, dir).ok());
  ShardedStore::Options options;
  options.verify = MmapStore::Verify::kEager;
  auto opened = ShardedStore::Open(dir, options);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
}

TEST(ShardedStoreTest, SaveStoreRejectsShardedFacade) {
  const TripleStore store = MakeStore();
  const std::string dir = FreshDir("sharded_no_resave");
  ASSERT_TRUE(WriteShardBundle(store, dir).ok());
  auto opened = ShardedStore::Open(dir);
  ASSERT_TRUE(opened.ok());
  const Status saved = SaveStore(opened.value()->store(), dir + "/resave.sqp");
  EXPECT_EQ(saved.code(), StatusCode::kFailedPrecondition);
}

TEST(ShardedStoreTest, ShardCountersReportShape) {
  const TripleStore store = MakeStore();
  const std::string dir = FreshDir("sharded_counters");
  ShardBundleOptions options;
  options.shard_count = 4;
  ASSERT_TRUE(WriteShardBundle(store, dir, options).ok());
  auto opened = ShardedStore::Open(dir);
  ASSERT_TRUE(opened.ok());
  uint64_t triples = 0;
  for (const auto& c : opened.value()->Counters()) {
    triples += c.triple_count;
    EXPECT_GT(c.bytes_mapped, 0u);
  }
  EXPECT_EQ(triples, store.size());
}

// ---------------------------------------------------------------------------
// Hostile inputs. Each case starts from a fresh well-formed bundle.
// ---------------------------------------------------------------------------

class HostileBundleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store_ = MakeStore();
    dir_ = FreshDir("sharded_hostile");
    ShardBundleOptions options;
    options.shard_count = 4;
    ASSERT_TRUE(WriteShardBundle(store_, dir_, options).ok());
    manifest_ = dir_ + "/" + bundle::kManifestFileName;
  }

  TripleStore store_;
  std::string dir_;
  std::string manifest_;
};

TEST_F(HostileBundleTest, MissingManifestIsIoError) {
  fs::remove(manifest_);
  EXPECT_FALSE(IsBundlePath(dir_));
  auto opened = ShardedStore::Open(dir_);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kIoError);
}

TEST_F(HostileBundleTest, TruncatedManifest) {
  fs::resize_file(manifest_, 10);
  ExpectCorruption(dir_, "10-byte manifest");
  fs::resize_file(manifest_, 0);
  ExpectCorruption(dir_, "empty manifest");
}

TEST_F(HostileBundleTest, ManifestTruncatedMidEntries) {
  const auto size = fs::file_size(manifest_);
  fs::resize_file(manifest_, size - 16);
  ExpectCorruption(dir_, "manifest missing half an entry");
}

TEST_F(HostileBundleTest, ManifestBadMagic) {
  FlipByte(manifest_, 0);
  ExpectCorruption(dir_, "patched magic");
}

TEST_F(HostileBundleTest, ManifestChecksumMismatch) {
  // Patch a shard entry's triple count without resealing: the trailing
  // CRC must reject the file before any semantic check runs.
  FlipByte(manifest_, sizeof(bundle::ManifestHeader) + 16);
  ExpectCorruption(dir_, "stale manifest checksum");
}

TEST_F(HostileBundleTest, ShardCountOutOfRange) {
  // shard_count sits after magic (8) + version (4).
  uint32_t zero = 0;
  std::fstream f(manifest_,
                 std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(12);
  f.write(reinterpret_cast<const char*>(&zero), sizeof(zero));
  f.close();
  ResealManifest(dir_);
  ExpectCorruption(dir_, "zero shard count");
}

TEST_F(HostileBundleTest, DuplicatedShardIds) {
  // entry[1].shard_id = 0 — two entries claiming the same shard.
  uint32_t zero = 0;
  std::fstream f(manifest_,
                 std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(static_cast<std::streamoff>(sizeof(bundle::ManifestHeader) +
                                      sizeof(bundle::ManifestShardEntry)));
  f.write(reinterpret_cast<const char*>(&zero), sizeof(zero));
  f.close();
  ResealManifest(dir_);
  ExpectCorruption(dir_, "duplicated shard id");
}

TEST_F(HostileBundleTest, MissingShardFile) {
  fs::remove(dir_ + "/" + BundleShardFileName(3));
  ExpectCorruption(dir_, "manifest names 4 shards, 3 files present");
}

TEST_F(HostileBundleTest, ExtraShardFile) {
  fs::copy_file(dir_ + "/" + BundleShardFileName(0),
                dir_ + "/" + BundleShardFileName(7));
  ExpectCorruption(dir_, "stray shard file beyond the manifest's count");
}

TEST_F(HostileBundleTest, ShardTableDisagreesWithManifestDigest) {
  // Flip a byte inside shard 1's section table: its table CRC no longer
  // matches the manifest's pinned digest, even at a lazy open.
  FlipByte(dir_ + "/" + BundleShardFileName(1),
           sizeof(v3::FileHeader) + 12);
  ExpectCorruption(dir_, "shard section table patched");
}

TEST_F(HostileBundleTest, ShardPayloadFlipCaughtByEagerVerify) {
  // A payload flip leaves the header + table (and thus the manifest
  // digest) intact; the per-section CRCs catch it under Verify::kEager.
  const std::string shard = dir_ + "/" + BundleShardFileName(2);
  FlipByte(shard, fs::file_size(shard) - 5);
  ExpectCorruption(dir_, "shard payload flipped",
                   MmapStore::Verify::kEager);
}

TEST_F(HostileBundleTest, ShardFileSwappedForAnother) {
  // Replace shard 2's file with a copy of shard 0's: sizes/digests
  // disagree with the manifest entry.
  fs::copy_file(dir_ + "/" + BundleShardFileName(0),
                dir_ + "/" + BundleShardFileName(2),
                fs::copy_options::overwrite_existing);
  ExpectCorruption(dir_, "shard file swapped");
}

TEST_F(HostileBundleTest, ManifestTotalTriplesMismatch) {
  // total_triples sits at offset 24 (magic 8 + 4×u32).
  uint64_t bogus = 1;
  std::fstream f(manifest_,
                 std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(24);
  f.write(reinterpret_cast<const char*>(&bogus), sizeof(bogus));
  f.close();
  ResealManifest(dir_);
  ExpectCorruption(dir_, "patched total_triples");
}

TEST_F(HostileBundleTest, ManifestClaimsRetiredStoreFormat) {
  // Patch the manifest's store_format to the retired v2 and reseal: every
  // shard digest still matches, but the manifest names a format no
  // reader serves.
  const uint32_t retired_format = 2;
  std::fstream f(manifest_, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(20);  // store_format: magic 8 + version 4 + count 4 + scheme 4
  f.write(reinterpret_cast<const char*>(&retired_format),
          sizeof(retired_format));
  f.close();
  ResealManifest(dir_);
  ExpectCorruption(dir_, "manifest store_format = 2");
}

TEST_F(HostileBundleTest, CrossShardDuplicateTriplesFailTheMerge) {
  // Both shard files hold the SAME triples: every manifest digest is
  // consistent, but the N-way SPO merge sees non-ascending steps.
  const std::string dir = FreshDir("sharded_hostile_dup");
  TripleStore clone;
  for (TermId id = 0; id < store_.dict().size(); ++id) {
    clone.dict().Intern(store_.dict().Name(id));
  }
  for (const Triple& t : store_.triples()) {
    clone.AddEncoded(t.s, t.p, t.o, t.score);
  }
  clone.Finalize();
  ASSERT_TRUE(SaveStore(clone, dir + "/" + BundleShardFileName(0)).ok());
  ASSERT_TRUE(SaveStore(clone, dir + "/" + BundleShardFileName(1)).ok());
  ASSERT_TRUE(WriteBundleManifest(dir, 2, bundle::HashScheme::kSubject).ok());
  ExpectCorruption(dir, "duplicate triples across shards");
}

TEST_F(HostileBundleTest, WrongShardPlacementRejectedByEagerVerify) {
  // A deliberately mis-partitioned bundle: shards swapped relative to the
  // hash assignment. The merge itself is hash-agnostic — a lazy open
  // serves it, and serves it CORRECTLY — but eager verification re-hashes
  // every triple and rejects the writer-contract violation.
  const std::string dir = FreshDir("sharded_hostile_misplaced");
  std::vector<TripleStore> shards(2);
  for (TripleStore& s : shards) {
    for (TermId id = 0; id < store_.dict().size(); ++id) {
      s.dict().Intern(store_.dict().Name(id));
    }
  }
  for (const Triple& t : store_.triples()) {
    const uint32_t wrong =
        1 - BundleShardOfTriple(t, bundle::HashScheme::kSubject, 2);
    shards[wrong].AddEncoded(t.s, t.p, t.o, t.score);
  }
  for (size_t i = 0; i < shards.size(); ++i) {
    shards[i].Finalize();
    ASSERT_TRUE(
        SaveStore(shards[i],
                  dir + "/" + BundleShardFileName(static_cast<uint32_t>(i)))
            .ok());
  }
  ASSERT_TRUE(WriteBundleManifest(dir, 2, bundle::HashScheme::kSubject).ok());

  // Lazy open: correct answers despite the misplacement.
  auto lazy = ShardedStore::Open(dir);
  ASSERT_TRUE(lazy.ok()) << lazy.status().ToString();
  ASSERT_EQ(lazy.value()->store().size(), store_.size());
  for (uint32_t i = 0; i < store_.size(); ++i) {
    ASSERT_EQ(lazy.value()->store().triple(i), store_.triples()[i]);
  }

  // Eager open: rejected.
  ExpectCorruption(dir, "triples in the wrong shard",
                   MmapStore::Verify::kEager);
}

}  // namespace
}  // namespace specqp
