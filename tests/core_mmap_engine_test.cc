// Integration test for the Engine::OpenFromPath fast path: a mapped
// (zero-copy SQPSTOR3 view, block-compressed postings) engine and a
// parsed (owned store) engine over the same file must return bit-identical
// top-k answers — bindings AND scores — for every query, strategy, k, and
// thread count, and both must match an engine over the original in-memory
// store. Files in the retired v1 and v2 formats are rejected by every
// reader with Status::Corruption.

#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "rdf/mmap_store.h"
#include "rdf/store_io.h"
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
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& blob) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  ASSERT_TRUE(out.good()) << path;
}

void ExpectIdenticalRows(const std::vector<ScoredRow>& a,
                         const std::vector<ScoredRow>& b,
                         const char* label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].bindings, b[i].bindings) << label << " row " << i;
    EXPECT_EQ(a[i].score, b[i].score) << label << " row " << i;  // bitwise
  }
}

class MmapEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(4242);
    specqp::testing::RandomStoreConfig cfg;
    cfg.num_subjects = 60;
    cfg.num_predicates = 5;
    cfg.num_objects = 18;
    cfg.num_triples = 2500;
    store_ = std::make_unique<TripleStore>(
        specqp::testing::MakeRandomStore(&rng, cfg));
    rules_ = specqp::testing::MakeRandomRules(&rng, *store_);
    for (size_t i = 0; i < 10; ++i) {
      queries_.push_back(specqp::testing::MakeRandomStarQuery(
          &rng, *store_, /*n=*/2 + (i % 2)));
    }

    // Save with a warmed statistics snapshot, like a production bundle.
    Engine warm_engine(store_.get(), &rules_);
    for (const Query& query : queries_) warm_engine.Warm(query);
    SaveStoreOptions save;
    save.stats = warm_engine.catalog().Snapshot();
    save.stats_head_fraction = warm_engine.catalog().head_fraction();
    path_ = TempPath("mmap_engine.sqp");
    ASSERT_TRUE(SaveStore(*store_, path_, save).ok());
  }

  std::unique_ptr<TripleStore> store_;
  RelaxationIndex rules_;
  std::vector<Query> queries_;
  std::string path_;
};

TEST_F(MmapEngineTest, MmapAndParsedEnginesAgreeBitForBit) {
  EngineOptions mmap_options;
  mmap_options.mmap = true;
  auto mapped = Engine::OpenFromPath(path_, &rules_, mmap_options);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ASSERT_TRUE(mapped.value().mmap_backed());
  EXPECT_GT(mapped.value().bytes_mapped(), 0u);

  EngineOptions parsed_options;
  parsed_options.mmap = false;
  auto parsed = Engine::OpenFromPath(path_, &rules_, parsed_options);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_FALSE(parsed.value().mmap_backed());

  Engine original(store_.get(), &rules_);

  for (const Strategy strategy :
       {Strategy::kSpecQp, Strategy::kTrinit, Strategy::kNoRelax}) {
    for (const size_t k : {5, 10}) {
      for (size_t qi = 0; qi < queries_.size(); ++qi) {
        const Query& query = queries_[qi];
        const auto from_mmap =
            testing::Execute(*mapped.value().engine, query, k, strategy);
        const auto from_parsed =
            testing::Execute(*parsed.value().engine, query, k, strategy);
        const auto from_original = testing::Execute(original, query, k, strategy);
        ExpectIdenticalRows(from_mmap.rows, from_parsed.rows,
                            "mmap vs parsed");
        ExpectIdenticalRows(from_mmap.rows, from_original.rows,
                            "mmap vs original");
      }
    }
  }
}

TEST_F(MmapEngineTest, MmapEngineAgreesUnderParallelExecution) {
  EngineOptions serial;
  serial.mmap = true;
  serial.num_threads = 1;
  EngineOptions parallel;
  parallel.mmap = true;
  parallel.num_threads = 4;
  parallel.parallel_min_rows = 1;  // force partitioned trees over views

  auto serial_engine = Engine::OpenFromPath(path_, &rules_, serial);
  auto parallel_engine = Engine::OpenFromPath(path_, &rules_, parallel);
  ASSERT_TRUE(serial_engine.ok());
  ASSERT_TRUE(parallel_engine.ok());

  for (const Query& query : queries_) {
    const auto a =
        testing::Execute(*serial_engine.value().engine, query, 10, Strategy::kSpecQp);
    const auto b =
        testing::Execute(*parallel_engine.value().engine, query, 10, Strategy::kSpecQp);
    ExpectIdenticalRows(a.rows, b.rows, "serial vs parallel over mmap");
  }
}

TEST_F(MmapEngineTest, StatsSnapshotPreloadsTheCatalog) {
  EngineOptions options;  // default head_fraction matches the snapshot
  auto opened = Engine::OpenFromPath(path_, &rules_, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ASSERT_TRUE(opened.value().mmap_backed());
  // The snapshot seeded the catalog before any query ran.
  EXPECT_GT(opened.value().engine->catalog().size(), 0u);

  // A mismatched head_fraction must NOT reuse the snapshot.
  EngineOptions mismatched;
  mismatched.head_fraction = 0.5;
  auto fresh = Engine::OpenFromPath(path_, &rules_, mismatched);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh.value().engine->catalog().size(), 0u);
}

TEST_F(MmapEngineTest, FullyVerifiedOpenServesIdenticalAnswers) {
  EngineOptions strict;
  strict.mmap = true;
  strict.mmap_verify_all = true;  // untrusted-file integrity level
  auto verified = Engine::OpenFromPath(path_, &rules_, strict);
  ASSERT_TRUE(verified.ok()) << verified.status().ToString();
  ASSERT_TRUE(verified.value().mmap_backed());

  Engine original(store_.get(), &rules_);
  const auto a =
      testing::Execute(*verified.value().engine, queries_[0], 10, Strategy::kSpecQp);
  const auto b = testing::Execute(original, queries_[0], 10, Strategy::kSpecQp);
  ExpectIdenticalRows(a.rows, b.rows, "verified mmap vs original");
}

// A file in the retired v1 stream layout: magic, version 1, then a
// CRC-terminated dictionary section and a CRC-terminated triple section.
std::string RetiredV1File(const TripleStore& store) {
  const auto append = [](std::string* out, auto value) {
    out->append(reinterpret_cast<const char*>(&value), sizeof(value));
  };
  std::string dict;
  append(&dict, static_cast<uint32_t>(store.dict().size()));
  for (TermId id = 0; id < store.dict().size(); ++id) {
    const std::string_view name = store.dict().Name(id);
    append(&dict, static_cast<uint32_t>(name.size()));
    dict.append(name);
  }
  std::string triples;
  append(&triples, static_cast<uint64_t>(store.size()));
  for (const Triple& t : store.triples()) {
    append(&triples, t.s);
    append(&triples, t.p);
    append(&triples, t.o);
    append(&triples, t.score);
  }
  std::string file = "SQPSTOR1";
  append(&file, uint32_t{1});
  for (const std::string* section : {&dict, &triples}) {
    file += *section;
    append(&file, Crc32c(section->data(), section->size()));
  }
  return file;
}

TEST_F(MmapEngineTest, RetiredFormatsAreRejectedByEveryReader) {
  const std::string v1_path = TempPath("retired.v1.sqp");
  WriteFile(v1_path, RetiredV1File(*store_));
  // A current file relabelled as v2: bytes [0, 12) are the magic and the
  // u32 version.
  std::string relabelled = ReadFile(path_);
  const uint32_t v2_version = 2;
  std::memcpy(relabelled.data(), "SQPSTOR2", 8);
  std::memcpy(relabelled.data() + 8, &v2_version, 4);
  const std::string v2_path = TempPath("retired.v2.sqp");
  WriteFile(v2_path, relabelled);

  MmapStore::Options eager;
  eager.verify = MmapStore::Verify::kEager;
  EngineOptions mmap_options;
  mmap_options.mmap = true;
  EngineOptions parsed_options;
  parsed_options.mmap = false;
  for (const std::string& path : {v1_path, v2_path}) {
    const Status statuses[] = {
        MmapStore::Open(path).status(),
        MmapStore::Open(path, eager).status(),
        LoadStore(path).status(),
        Engine::OpenFromPath(path, &rules_, mmap_options).status(),
        Engine::OpenFromPath(path, &rules_, parsed_options).status(),
    };
    for (size_t i = 0; i < std::size(statuses); ++i) {
      EXPECT_EQ(statuses[i].code(), StatusCode::kCorruption)
          << path << " reader " << i << ": " << statuses[i].ToString();
    }
  }
}

}  // namespace
}  // namespace specqp
