// The store-format probe: every bundled workload query (66 XKG + 50
// Twitter = 116, the bench-bundle counts over test-sized datasets) must
// return bit-identical rows — bindings AND scores — from one SQPSTOR3 file
// served two ways, mapped (block-compressed posting lists) and parsed
// through LoadStore (flat lists), across all three strategies and thread
// counts {1, 2, 8}, and both must match an engine over the original
// in-memory store. Block skipping is an access-path optimisation only;
// this is the determinism contract of docs/ARCHITECTURE.md ("Block
// iterator & skipping").

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "datasets/twitter_generator.h"
#include "datasets/workload.h"
#include "datasets/xkg_generator.h"
#include "rdf/store_io.h"
#include "test_util.h"

namespace specqp {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

void ExpectIdenticalRows(const std::vector<ScoredRow>& a,
                         const std::vector<ScoredRow>& b, const char* label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].bindings, b[i].bindings) << label << " row " << i;
    EXPECT_EQ(a[i].score, b[i].score) << label << " row " << i;  // bitwise
  }
}

TEST(StoreFormatProbeTest, WorkloadBitIdenticalAcrossFormatsAndThreads) {
  XkgConfig xkg_config;
  xkg_config.num_entities = 6000;
  xkg_config.num_domains = 8;
  // A flat popularity curve, deliberately: rank-join early termination
  // requires some join result to beat top + UpperBound of the other side,
  // and under the default power-law skew the per-list-normalised scores
  // collapse so fast that no result ever does — the join provably drains
  // both sides before emitting, and block skipping cannot trigger no
  // matter the implementation (see docs/ARCHITECTURE.md, "Block iterator
  // & skipping"). A gentler curve keeps result scores competitive with
  // the corner bound so the skip path is actually exercised end-to-end.
  xkg_config.entity_popularity_skew = 0.15;
  const XkgDataset xkg = GenerateXkg(xkg_config);
  XkgWorkloadConfig xkg_wl;  // defaults: 22 per size of 2/3/4 => 66
  xkg_wl.min_relaxations = 8;
  const std::vector<Query> xkg_queries = MakeXkgWorkload(xkg, xkg_wl);
  ASSERT_EQ(xkg_queries.size(), 66u);

  TwitterConfig twitter_config;
  twitter_config.num_tweets = 20000;
  twitter_config.num_topics = 12;
  const TwitterDataset twitter = GenerateTwitter(twitter_config);
  TwitterWorkloadConfig twitter_wl;  // defaults: 25 per size of 2/3 => 50
  twitter_wl.min_relaxations = 4;
  twitter_wl.min_relaxed_answers = 10;
  const std::vector<Query> twitter_queries =
      MakeTwitterWorkload(twitter, twitter_wl);
  ASSERT_EQ(twitter_queries.size(), 50u);
  ASSERT_EQ(xkg_queries.size() + twitter_queries.size(), 116u);

  const struct {
    const char* name;
    const TripleStore* store;
    const RelaxationIndex* rules;
    const std::vector<Query>* workload;
  } bundles[] = {
      {"xkg", &xkg.store, &xkg.rules, &xkg_queries},
      {"twitter", &twitter.store, &twitter.rules, &twitter_queries},
  };
  const Strategy strategies[] = {Strategy::kSpecQp, Strategy::kTrinit,
                                 Strategy::kNoRelax};
  const size_t k = 10;

  uint64_t xkg_mapped_blocks_skipped = 0;
  for (const auto& bundle : bundles) {
    const std::string path =
        TempPath((std::string("probe_") + bundle.name + ".sqp").c_str());
    ASSERT_TRUE(SaveStore(*bundle.store, path).ok());

    // Ground truth: the in-memory engine, whose flat lists never touch the
    // block counters.
    Engine reference(bundle.store, bundle.rules);
    std::vector<std::vector<QueryResponse>> expected(
        std::size(strategies));
    for (size_t si = 0; si < std::size(strategies); ++si) {
      expected[si].reserve(bundle.workload->size());
      for (const Query& query : *bundle.workload) {
        expected[si].push_back(
            testing::Execute(reference, query, k, strategies[si]));
        EXPECT_EQ(expected[si].back().stats.blocks_decoded, 0u);
        EXPECT_EQ(expected[si].back().stats.blocks_skipped, 0u);
      }
    }

    for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      EngineOptions options;
      options.num_threads = threads;
      if (threads > 1) options.parallel_min_rows = 1;  // force partitioning
      options.mmap = true;
      auto mapped = Engine::OpenFromPath(path, bundle.rules, options);
      ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
      ASSERT_TRUE(mapped.value().mmap_backed());
      options.mmap = false;
      auto parsed = Engine::OpenFromPath(path, bundle.rules, options);
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
      ASSERT_FALSE(parsed.value().mmap_backed());

      for (size_t si = 0; si < std::size(strategies); ++si) {
        for (size_t qi = 0; qi < bundle.workload->size(); ++qi) {
          const Query& query = (*bundle.workload)[qi];
          const auto from_mapped = testing::Execute(
              *mapped.value().engine, query, k, strategies[si]);
          const auto from_parsed = testing::Execute(
              *parsed.value().engine, query, k, strategies[si]);
          const std::string label =
              std::string(bundle.name) + " q" + std::to_string(qi) +
              " strategy " + std::to_string(si) + " threads " +
              std::to_string(threads);
          ExpectIdenticalRows(from_parsed.rows, from_mapped.rows,
                              (label + " parsed vs mapped").c_str());
          ExpectIdenticalRows(from_mapped.rows, expected[si][qi].rows,
                              (label + " mapped vs original").c_str());
          // Flat lists never touch the block counters.
          EXPECT_EQ(from_parsed.stats.blocks_decoded, 0u);
          EXPECT_EQ(from_parsed.stats.blocks_skipped, 0u);
          if (bundle.store == &xkg.store) {
            xkg_mapped_blocks_skipped += from_mapped.stats.blocks_skipped;
          }
        }
      }
    }
  }

  // The rank-join-heavy XKG workload must actually exercise the skipping
  // machinery: top-k early termination leaves undecoded blocks behind.
  EXPECT_GT(xkg_mapped_blocks_skipped, 0u);
}

}  // namespace
}  // namespace specqp
