// Scatter-gather equivalence battery: every bundled workload query (66 XKG
// + 50 Twitter = 116) must return bit-identical rows — bindings and raw
// score bits — on {single-file v3, 2-shard bundle, 8-shard bundle}
// backends, across all three strategies and 1/2/8 execution threads, with
// speculative plan racing forced on. This is the determinism contract of
// docs/ARCHITECTURE.md ("Sharded stores & scatter-gather"): sharding is a
// storage layout, never an answer change.

#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "datasets/twitter_generator.h"
#include "datasets/workload.h"
#include "datasets/xkg_generator.h"
#include "rdf/sharded_store.h"
#include "rdf/store_io.h"
#include "test_util.h"
#include "util/string_util.h"

// Sanitizer builds run ~5-15x slower; trim the thread sweep there (the
// release gate runs the full matrix).
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define SPECQP_SANITIZED_BUILD 1
#endif
#if !defined(SPECQP_SANITIZED_BUILD) && defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define SPECQP_SANITIZED_BUILD 1
#endif
#endif

namespace specqp {
namespace {

namespace fs = std::filesystem;

void ExpectSameRows(const std::vector<ScoredRow>& expected,
                    const std::vector<ScoredRow>& actual,
                    const std::string& label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].bindings, expected[i].bindings) << label << " #" << i;
    EXPECT_EQ(actual[i].score, expected[i].score) << label << " #" << i;
  }
}

TEST(ShardedEngineTest, WorkloadBitIdenticalAcrossBackends) {
  // Same reduced-scale datasets as the speculation probe: full workload
  // query counts (66 + 50 = 116) at test-sized graphs.
  XkgConfig xkg_config;
  xkg_config.num_entities = 6000;
  xkg_config.num_domains = 8;
  const XkgDataset xkg = GenerateXkg(xkg_config);
  XkgWorkloadConfig xkg_wl;
  xkg_wl.min_relaxations = 8;
  const std::vector<Query> xkg_queries = MakeXkgWorkload(xkg, xkg_wl);
  ASSERT_EQ(xkg_queries.size(), 66u);

  TwitterConfig twitter_config;
  twitter_config.num_tweets = 20000;
  twitter_config.num_topics = 12;
  const TwitterDataset twitter = GenerateTwitter(twitter_config);
  TwitterWorkloadConfig twitter_wl;
  twitter_wl.min_relaxations = 4;
  twitter_wl.min_relaxed_answers = 10;
  const std::vector<Query> twitter_queries =
      MakeTwitterWorkload(twitter, twitter_wl);
  ASSERT_EQ(twitter_queries.size(), 50u);
  ASSERT_EQ(xkg_queries.size() + twitter_queries.size(), 116u);

  const std::string dir = ::testing::TempDir() + "/sharded_engine";
  fs::remove_all(dir);
  fs::create_directories(dir);

  struct Dataset {
    const char* name;
    const TripleStore* store;
    const RelaxationIndex* rules;
    const std::vector<Query>* workload;
  } datasets[] = {
      {"xkg", &xkg.store, &xkg.rules, &xkg_queries},
      {"twitter", &twitter.store, &twitter.rules, &twitter_queries},
  };
  constexpr Strategy kStrategies[] = {Strategy::kSpecQp, Strategy::kTrinit,
                                      Strategy::kNoRelax};
#if defined(SPECQP_SANITIZED_BUILD)
  const std::vector<int> thread_counts = {2};
#else
  const std::vector<int> thread_counts = {1, 2, 8};
#endif

  for (const Dataset& dataset : datasets) {
    // One single-file v3 store plus a 2-shard and an 8-shard bundle over
    // the identical triples.
    const std::string single =
        dir + "/" + std::string(dataset.name) + ".sqps";
    ASSERT_TRUE(SaveStore(*dataset.store, single).ok());
    struct Backend {
      std::string label;
      std::string path;
      uint32_t shards;  // 0 = single file
    };
    std::vector<Backend> backends = {{"single-v3", single, 0}};
    for (const uint32_t shards : {2u, 8u}) {
      const std::string bundle_dir = dir + "/" + std::string(dataset.name) +
                                     "_shard" + std::to_string(shards);
      ShardBundleOptions bundle_options;
      bundle_options.shard_count = shards;
      ASSERT_TRUE(
          WriteShardBundle(*dataset.store, bundle_dir, bundle_options).ok());
      backends.push_back({"shard" + std::to_string(shards), bundle_dir,
                          shards});
    }

    // Ground truth: the serial in-memory engine, speculation off.
    EngineOptions base;
    base.num_threads = 1;
    Engine baseline(dataset.store, dataset.rules, base);
    std::vector<std::vector<std::vector<ScoredRow>>> expected(
        std::size(kStrategies));
    for (size_t s = 0; s < std::size(kStrategies); ++s) {
      expected[s].reserve(dataset.workload->size());
      for (const Query& query : *dataset.workload) {
        expected[s].push_back(
            testing::Execute(baseline, query, 10, kStrategies[s]).rows);
      }
    }

    for (const Backend& backend : backends) {
      for (const int threads : thread_counts) {
        EngineOptions options;
        options.num_threads = threads;
        options.speculate_threshold = 2.0;  // force racing (threads >= 2)
        auto opened = Engine::OpenFromPath(backend.path, dataset.rules,
                                           options);
        ASSERT_TRUE(opened.ok())
            << backend.label << ": " << opened.status().ToString();
        EXPECT_EQ(opened.value().store().is_sharded(), backend.shards > 0);

        uint64_t raced = 0;
        for (size_t s = 0; s < std::size(kStrategies); ++s) {
          for (size_t q = 0; q < dataset.workload->size(); ++q) {
            const QueryResponse result =
                testing::Execute(*opened.value().engine,
                                 (*dataset.workload)[q], 10, kStrategies[s]);
            raced += result.stats.plans_raced;
            ExpectSameRows(
                expected[s][q], result.rows,
                StrFormat("%s/%s/%s q%zu threads=%d", dataset.name,
                          backend.label.c_str(),
                          std::string(StrategyName(kStrategies[s])).c_str(),
                          q, threads));
          }
        }
        if (threads >= 2) {
          EXPECT_GT(raced, 0u) << dataset.name << "/" << backend.label
                               << " threads=" << threads;
        }

        // The scatter-gather ledger actually moved: every shard holds
        // triples and was hit by at least one scattered pattern.
        if (backend.shards > 0) {
          ASSERT_NE(opened.value().sharded, nullptr);
          EXPECT_EQ(opened.value().sharded->shard_count(), backend.shards);
          uint64_t gathered = 0;
          for (const auto& c : opened.value().sharded->Counters()) {
            EXPECT_GT(c.triple_count, 0u)
                << backend.label << " shard " << c.shard_id;
            EXPECT_GT(c.patterns_scattered, 0u)
                << backend.label << " shard " << c.shard_id;
            gathered += c.triples_gathered;
          }
          EXPECT_GT(gathered, 0u) << backend.label;
        }
      }
    }
  }
}

}  // namespace
}  // namespace specqp
