#include "relax/rules_io.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "test_util.h"
#include "util/crc32.h"
#include "util/random.h"

namespace specqp {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

RelaxationIndex MakeSampleIndex() {
  RelaxationIndex index;
  auto add = [&index](TermId p, TermId from_o, TermId to_o, double w) {
    RelaxationRule rule{PatternKey{kInvalidTermId, p, from_o},
                        PatternKey{kInvalidTermId, p, to_o}, w};
    SPECQP_CHECK(index.AddRule(rule).ok());
  };
  add(1, 10, 11, 0.9);
  add(1, 10, 12, 0.6);
  add(1, 10, 13, 0.3);
  add(2, 20, 21, 0.8);
  add(2, 22, 21, 0.5);
  return index;
}

TEST(RulesIoTest, RoundTripPreservesRules) {
  const RelaxationIndex original = MakeSampleIndex();
  const std::string path = TempPath("rules.sqpr");
  ASSERT_TRUE(SaveRules(original, path).ok());

  auto loaded = LoadRules(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().total_rules(), original.total_rules());
  EXPECT_EQ(loaded.value().num_domains(), original.num_domains());
  EXPECT_EQ(loaded.value().AllRules(), original.AllRules());
}

TEST(RulesIoTest, RoundTripEmptyIndex) {
  RelaxationIndex empty;
  const std::string path = TempPath("empty.sqpr");
  ASSERT_TRUE(SaveRules(empty, path).ok());
  auto loaded = LoadRules(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().total_rules(), 0u);
}

TEST(RulesIoTest, RoundTripLargeRandomIndex) {
  Rng rng(404);
  specqp::testing::RandomStoreConfig cfg;
  cfg.num_triples = 600;
  TripleStore store = specqp::testing::MakeRandomStore(&rng, cfg);
  RelaxationIndex original = specqp::testing::MakeRandomRules(&rng, store, 5);
  ASSERT_GT(original.total_rules(), 20u);

  const std::string path = TempPath("large.sqpr");
  ASSERT_TRUE(SaveRules(original, path).ok());
  auto loaded = LoadRules(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().AllRules(), original.AllRules());
}

TEST(RulesIoTest, LoadMissingFileFails) {
  auto r = LoadRules(TempPath("nope.sqpr"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(RulesIoTest, LoadRejectsBadMagic) {
  const std::string path = TempPath("badmagic.sqpr");
  std::ofstream out(path, std::ios::binary);
  out << "NOTRULESxxxxxxxxxxxxxxxxxxxx";
  out.close();
  auto r = LoadRules(path);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
}

TEST(RulesIoTest, LoadDetectsCorruptedPayload) {
  const RelaxationIndex original = MakeSampleIndex();
  const std::string path = TempPath("corrupt.sqpr");
  ASSERT_TRUE(SaveRules(original, path).ok());

  std::ifstream in(path, std::ios::binary | std::ios::ate);
  std::string blob(static_cast<size_t>(in.tellg()), '\0');
  in.seekg(0);
  in.read(blob.data(), static_cast<std::streamsize>(blob.size()));
  in.close();
  blob[blob.size() / 2] = static_cast<char>(blob[blob.size() / 2] ^ 0x10);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  out.close();

  auto r = LoadRules(path);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
}

TEST(RulesIoTest, LoadRejectsTruncation) {
  const RelaxationIndex original = MakeSampleIndex();
  const std::string path = TempPath("trunc.sqpr");
  ASSERT_TRUE(SaveRules(original, path).ok());

  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const size_t size = static_cast<size_t>(in.tellg());
  std::string blob(size, '\0');
  in.seekg(0);
  in.read(blob.data(), static_cast<std::streamsize>(size));
  in.close();
  for (size_t cut : {size / 3, size - 5}) {
    const std::string cut_path = TempPath("trunc_cut.sqpr");
    std::ofstream out(cut_path, std::ios::binary | std::ios::trunc);
    out.write(blob.data(), static_cast<std::streamsize>(cut));
    out.close();
    auto r = LoadRules(cut_path);
    EXPECT_FALSE(r.ok()) << "cut at " << cut;
  }
}

TEST(RulesIoTest, LoadRejectsOverflowingRuleCount) {
  // A one-rule file whose count field says 2^59 + 1 rules, with the CRC
  // recomputed: (2^59 + 1) * 32 bytes per rule wraps to 32, the size of
  // the one rule present, so a size check that multiplies first passes and
  // the loader reads past the payload.
  RelaxationIndex index;
  ASSERT_TRUE(index
                  .AddRule(RelaxationRule{PatternKey{kInvalidTermId, 1, 10},
                                          PatternKey{kInvalidTermId, 1, 11},
                                          0.5})
                  .ok());
  const std::string path = TempPath("overflow_count.sqpr");
  ASSERT_TRUE(SaveRules(index, path).ok());
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  std::string blob(static_cast<size_t>(in.tellg()), '\0');
  in.seekg(0);
  in.read(blob.data(), static_cast<std::streamsize>(blob.size()));
  in.close();

  constexpr size_t kHeader = 8 + 4;  // magic + version
  const uint64_t count = (uint64_t{1} << 59) + 1;
  std::memcpy(blob.data() + kHeader, &count, sizeof(count));
  const uint32_t crc =
      Crc32c(blob.data() + kHeader, blob.size() - kHeader - 4);
  std::memcpy(blob.data() + blob.size() - 4, &crc, sizeof(crc));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  out.close();

  auto r = LoadRules(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  EXPECT_NE(r.status().ToString().find("rule count"), std::string::npos)
      << r.status().ToString();
}

TEST(AllRulesTest, DeterministicOrder) {
  const RelaxationIndex index = MakeSampleIndex();
  const auto a = index.AllRules();
  const auto b = index.AllRules();
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size(), 5u);
  // Sorted by domain key, then weight descending.
  EXPECT_DOUBLE_EQ(a[0].weight, 0.9);
  EXPECT_DOUBLE_EQ(a[1].weight, 0.6);
  EXPECT_DOUBLE_EQ(a[2].weight, 0.3);
}

}  // namespace
}  // namespace specqp
