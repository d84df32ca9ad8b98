#include "stats/catalog.h"

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"

namespace specqp {
namespace {

TEST(PatternStatsTest, EmptyDetection) {
  PatternStats stats;
  EXPECT_TRUE(stats.empty());
  stats.m = 5;
  EXPECT_TRUE(stats.empty());  // still zero mass
  stats.s_m = 1.0;
  EXPECT_FALSE(stats.empty());
}

TEST(StatisticsCatalogTest, ComputesPaperStats) {
  // Scores 100, 50, 25 normalise to 1, 0.5, 0.25 (total 1.75).
  // 80% boundary: 0.8*1.75 = 1.4, cumulative 1.0, 1.5 -> rank 2, sigma=0.5.
  TripleStore store;
  store.Add("a", "type", "singer", 100.0);
  store.Add("b", "type", "singer", 50.0);
  store.Add("c", "type", "singer", 25.0);
  store.Finalize();
  PostingListCache postings(&store);
  StatisticsCatalog catalog(&store, &postings);

  PatternKey key{kInvalidTermId, store.MustId("type"),
                 store.MustId("singer")};
  const PatternStats& stats = catalog.GetStats(key);
  EXPECT_EQ(stats.m, 3u);
  EXPECT_DOUBLE_EQ(stats.s_m, 1.75);
  EXPECT_DOUBLE_EQ(stats.sigma_r, 0.5);
  EXPECT_DOUBLE_EQ(stats.s_r, 1.5);
  EXPECT_FALSE(stats.empty());

  const TwoBucketHistogram h = stats.Histogram();
  EXPECT_DOUBLE_EQ(h.sigma_r(), 0.5);
  EXPECT_NEAR(h.head_mass(), 1.5 / 1.75, 1e-12);
}

TEST(StatisticsCatalogTest, EmptyPattern) {
  TripleStore store;
  store.Add("a", "type", "singer", 1.0);
  store.Finalize();
  PostingListCache postings(&store);
  StatisticsCatalog catalog(&store, &postings);
  PatternKey key{kInvalidTermId, store.MustId("type"), store.MustId("a")};
  const PatternStats& stats = catalog.GetStats(key);
  EXPECT_TRUE(stats.empty());
  EXPECT_EQ(stats.m, 0u);
}

TEST(StatisticsCatalogTest, MemoisesResults) {
  testing::MusicFixture fx = testing::MakeMusicFixture();
  PostingListCache postings(&fx.store);
  StatisticsCatalog catalog(&fx.store, &postings);
  PatternKey key{kInvalidTermId, fx.type, fx.Id("singer")};
  const PatternStats a = catalog.GetStats(key);
  const uint64_t lookups = postings.hits() + postings.misses();
  const PatternStats b = catalog.GetStats(key);
  // Served from the memo: no second posting-list lookup.
  EXPECT_EQ(postings.hits() + postings.misses(), lookups);
  EXPECT_EQ(a.m, b.m);
  EXPECT_EQ(a.sigma_r, b.sigma_r);
  EXPECT_EQ(a.s_r, b.s_r);
  EXPECT_EQ(a.s_m, b.s_m);
  EXPECT_EQ(catalog.size(), 1u);
}

// Every planning call on an engine shares one catalog, and the serving
// preflight may Clear() it while other requests read it.
TEST(StatisticsCatalogTest, ConcurrentGetStatsAndClear) {
  testing::MusicFixture fx = testing::MakeMusicFixture();
  PostingListCache postings(&fx.store);
  StatisticsCatalog catalog(&fx.store, &postings);
  const std::vector<std::string> types = {"singer", "vocalist", "artist",
                                          "musician", "lyricist", "writer"};
  std::vector<PatternKey> keys;
  std::vector<PatternStats> expected;
  {
    PostingListCache reference_postings(&fx.store);
    StatisticsCatalog reference(&fx.store, &reference_postings);
    for (const std::string& type : types) {
      keys.push_back(PatternKey{kInvalidTermId, fx.type, fx.Id(type)});
      expected.push_back(reference.GetStats(keys.back()));
    }
  }

  constexpr int kThreads = 6;
  constexpr int kRounds = 5000;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        if (t == 0 && round % 8 == 0) {
          catalog.Clear();
          continue;
        }
        const size_t i = static_cast<size_t>(t + round) % keys.size();
        const PatternStats got = catalog.GetStats(keys[i]);
        if (got.m != expected[i].m || got.sigma_r != expected[i].sigma_r ||
            got.s_r != expected[i].s_r || got.s_m != expected[i].s_m) {
          mismatches.fetch_add(1);
        }
        (void)catalog.size();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_LE(catalog.size(), keys.size());
}

TEST(StatisticsCatalogTest, CustomHeadFraction) {
  TripleStore store;
  store.Add("a", "type", "x", 100.0);
  store.Add("b", "type", "x", 50.0);
  store.Add("c", "type", "x", 25.0);
  store.Finalize();
  PostingListCache postings(&store);
  StatisticsCatalog catalog(&store, &postings, /*head_fraction=*/0.5);
  PatternKey key{kInvalidTermId, store.MustId("type"), store.MustId("x")};
  const PatternStats& stats = catalog.GetStats(key);
  // 0.5 * 1.75 = 0.875, first cumulative >= that is rank 1 (1.0).
  EXPECT_DOUBLE_EQ(stats.sigma_r, 1.0);
  EXPECT_DOUBLE_EQ(stats.s_r, 1.0);
}

TEST(StatisticsCatalogTest, SingleMatchPattern) {
  testing::MusicFixture fx = testing::MakeMusicFixture();
  PostingListCache postings(&fx.store);
  StatisticsCatalog catalog(&fx.store, &postings);
  // jazz_singer has two members (norah=55, ray=45).
  PatternKey key{kInvalidTermId, fx.type, fx.Id("jazz_singer")};
  const PatternStats& stats = catalog.GetStats(key);
  EXPECT_EQ(stats.m, 2u);
  EXPECT_FALSE(stats.empty());
}

TEST(StatisticsCatalogTest, EightyPercentBoundaryMidList) {
  testing::MusicFixture fx = testing::MakeMusicFixture();
  PostingListCache postings(&fx.store);
  StatisticsCatalog catalog(&fx.store, &postings);
  PatternKey key{kInvalidTermId, fx.type, fx.Id("jazz_singer")};
  const PatternStats& stats = catalog.GetStats(key);
  EXPECT_NEAR(stats.sigma_r, 45.0 / 55.0, 1e-12);
  EXPECT_NEAR(stats.s_r, 1.0 + 45.0 / 55.0, 1e-12);
  EXPECT_NEAR(stats.s_m, stats.s_r, 1e-12);  // boundary is the last rank
}

TEST(StatisticsCatalogTest, HistogramMassConsistency) {
  testing::MusicFixture fx = testing::MakeMusicFixture();
  PostingListCache postings(&fx.store);
  StatisticsCatalog catalog(&fx.store, &postings);
  for (const char* type : {"singer", "vocalist", "artist", "musician"}) {
    PatternKey key{kInvalidTermId, fx.type, fx.Id(type)};
    const PatternStats& stats = catalog.GetStats(key);
    ASSERT_FALSE(stats.empty());
    const TwoBucketHistogram h = stats.Histogram();
    EXPECT_NEAR(h.Cdf(1.0), 1.0, 1e-12);
    EXPECT_GE(h.head_mass(), 0.8 - 1e-9) << type;
    EXPECT_LE(h.sigma_r(), 1.0) << type;
  }
}

}  // namespace
}  // namespace specqp
