// End-to-end determinism and accounting of batched execution: for every
// strategy and thread count, BatchExecutor must return per-query results
// bit-identical (bindings AND scores) to sequential one-query runs,
// duplicates must collapse onto one execution, a parse failure must
// not affect the rest of a text batch, and the batch ledger must show
// shared scans resolved once.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/batch_executor.h"
#include "core/engine.h"
#include "datasets/twitter_generator.h"
#include "datasets/workload.h"
#include "datasets/xkg_generator.h"
#include "test_util.h"

namespace specqp {
namespace {

using specqp::testing::MakeMusicFixture;
using specqp::testing::MakeRandomRules;
using specqp::testing::MakeRandomStarQuery;
using specqp::testing::MakeRandomStore;
using specqp::testing::MusicFixture;

constexpr Strategy kStrategies[] = {Strategy::kSpecQp, Strategy::kTrinit,
                                    Strategy::kNoRelax};
constexpr int kThreadCounts[] = {1, 2, 8};

EngineOptions ThreadedOptions(int threads) {
  EngineOptions options;
  options.num_threads = threads;
  options.parallel_min_rows = 0;
  return options;
}

void ExpectIdenticalRows(const QueryResponse& expected,
                         const QueryResponse& actual,
                         const std::string& label) {
  ASSERT_EQ(actual.rows.size(), expected.rows.size()) << label;
  for (size_t i = 0; i < expected.rows.size(); ++i) {
    EXPECT_EQ(actual.rows[i].bindings, expected.rows[i].bindings)
        << label << " rank " << i;
    EXPECT_EQ(actual.rows[i].score, expected.rows[i].score)
        << label << " rank " << i;
  }
}

std::vector<Query> MusicBatch(const MusicFixture& fx) {
  return {
      fx.TypeQuery({"singer", "lyricist"}),
      fx.TypeQuery({"singer", "lyricist", "guitarist"}),
      fx.TypeQuery({"singer", "lyricist", "guitarist", "pianist"}),
      fx.TypeQuery({"jazz_singer"}),
      fx.TypeQuery({"pianist", "guitarist"}),
  };
}

TEST(BatchExecutionTest, BitIdenticalToSequentialAcrossThreadsAndStrategies) {
  MusicFixture fx = MakeMusicFixture();
  const std::vector<Query> batch = MusicBatch(fx);
  for (size_t k : {1u, 3u, 10u}) {
    for (Strategy strategy : kStrategies) {
      // Sequential reference from a dedicated engine.
      Engine reference(&fx.store, &fx.rules, ThreadedOptions(1));
      std::vector<QueryResponse> expected;
      for (const Query& query : batch) {
        expected.push_back(testing::Execute(reference, query, k, strategy));
      }
      for (int threads : kThreadCounts) {
        Engine engine(&fx.store, &fx.rules, ThreadedOptions(threads));
        BatchStats bs;
        const auto actual = testing::ExecuteBatch(engine, batch, k, strategy, &bs);
        ASSERT_EQ(actual.size(), batch.size());
        EXPECT_EQ(bs.batch_size, batch.size());
        EXPECT_EQ(bs.distinct_queries, batch.size());
        for (size_t i = 0; i < batch.size(); ++i) {
          ExpectIdenticalRows(
              expected[i], actual[i],
              std::string(StrategyName(strategy)) + "/threads=" +
                  std::to_string(threads) + "/k=" + std::to_string(k) +
                  "/query=" + std::to_string(i));
        }
      }
    }
  }
}

TEST(BatchExecutionTest, RandomStoresBitIdenticalToSequential) {
  for (int seed = 0; seed < 3; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) * 6151 + 29);
    specqp::testing::RandomStoreConfig cfg;
    cfg.num_subjects = 30;
    cfg.num_predicates = 3;
    cfg.num_objects = 10;
    cfg.num_triples = 220;
    TripleStore store = MakeRandomStore(&rng, cfg);
    RelaxationIndex rules = MakeRandomRules(&rng, store, 4);

    std::vector<Query> batch;
    for (int q = 0; q < 6; ++q) {
      batch.push_back(MakeRandomStarQuery(&rng, store, 2 + rng.NextBounded(3)));
    }
    for (Strategy strategy : kStrategies) {
      Engine reference(&store, &rules, ThreadedOptions(1));
      std::vector<QueryResponse> expected;
      for (const Query& query : batch) {
        expected.push_back(testing::Execute(reference, query, 10, strategy));
      }
      for (int threads : {2, 8}) {
        Engine engine(&store, &rules, ThreadedOptions(threads));
        const auto actual = testing::ExecuteBatch(engine, batch, 10, strategy);
        for (size_t i = 0; i < batch.size(); ++i) {
          ExpectIdenticalRows(expected[i], actual[i],
                              std::string(StrategyName(strategy)) + "/seed=" +
                                  std::to_string(seed) + "/threads=" +
                                  std::to_string(threads) + "/query=" +
                                  std::to_string(i));
        }
      }
    }
  }
}

TEST(BatchExecutionTest, DuplicateQueriesExecuteOnceAndFanOut) {
  MusicFixture fx = MakeMusicFixture();
  const Query a = fx.TypeQuery({"singer", "lyricist"});
  const Query b = fx.TypeQuery({"pianist", "guitarist"});
  const std::vector<Query> batch = {a, b, a, a, b};

  Engine engine(&fx.store, &fx.rules, ThreadedOptions(2));
  BatchStats bs;
  const auto results =
      testing::ExecuteBatch(engine, batch, 5, Strategy::kSpecQp, &bs);
  ASSERT_EQ(results.size(), 5u);
  EXPECT_EQ(bs.batch_size, 5u);
  EXPECT_EQ(bs.distinct_queries, 2u);

  // Duplicates carry identical results (shared execution).
  ExpectIdenticalRows(results[0], results[2], "dup of a");
  ExpectIdenticalRows(results[0], results[3], "dup of a");
  ExpectIdenticalRows(results[1], results[4], "dup of b");
  EXPECT_EQ(results[0].stats.scan_rows, results[2].stats.scan_rows);

  // And each matches a stand-alone execution.
  Engine reference(&fx.store, &fx.rules, ThreadedOptions(1));
  ExpectIdenticalRows(testing::Execute(reference, a, 5, Strategy::kSpecQp), results[0],
                      "a vs sequential");
  ExpectIdenticalRows(testing::Execute(reference, b, 5, Strategy::kSpecQp), results[1],
                      "b vs sequential");
}

TEST(BatchExecutionTest, SharedScansCountedOnceAcrossTheBatch) {
  MusicFixture fx = MakeMusicFixture();
  // Three queries sharing the "singer" and "lyricist" patterns.
  const std::vector<Query> batch = {
      fx.TypeQuery({"singer", "lyricist"}),
      fx.TypeQuery({"singer", "guitarist"}),
      fx.TypeQuery({"lyricist", "guitarist", "singer"}),
  };
  Engine engine(&fx.store, &fx.rules, ThreadedOptions(1));
  BatchStats bs;
  testing::ExecuteBatch(engine, batch, 5, Strategy::kTrinit, &bs);

  // 3 distinct original patterns; with TriniT every relaxation list is in
  // the prepare wave: singer->3 targets, lyricist->1, guitarist->2, all
  // distinct => 9 resolved lists, none resolved twice.
  EXPECT_EQ(bs.distinct_patterns, 3u);
  EXPECT_EQ(bs.lists_resolved, 9u);
  // Execution re-reads the shared patterns once per query: 7 pattern
  // instances + 6 relaxation scans... every one of those Gets is a hit on
  // a list resolved exactly once.
  EXPECT_GT(bs.shared_scan_hits, bs.lists_resolved);
  EXPECT_EQ(bs.shared_scan_misses, 0u);
  // Relaxations were mined once per distinct pattern.
  EXPECT_EQ(bs.patterns_expanded, 3u);

  // Sequential execution of the same batch issues one engine-cache lookup
  // per pattern instance per query; the batch resolved each distinct list
  // once and served the rest from the shared map.
  Engine sequential(&fx.store, &fx.rules, ThreadedOptions(1));
  for (const Query& query : batch) {
    testing::Execute(sequential, query, 5, Strategy::kTrinit);
  }
  EXPECT_GT(sequential.postings().hits() + sequential.postings().misses(),
            engine.postings().hits() + engine.postings().misses())
      << "batch execution must issue fewer engine-cache lookups";
}

TEST(BatchExecutionTest, TextBatchParseFailureLeavesOthersUnaffected) {
  MusicFixture fx = MakeMusicFixture();
  const std::vector<std::string> texts = {
      "SELECT ?s WHERE { ?s <rdf:type> <singer> . ?s <rdf:type> <lyricist> }",
      "SELECT ?s WHERE { this is not a query",
      "SELECT ?s WHERE { ?s <rdf:type> <pianist> }",
  };
  Engine engine(&fx.store, &fx.rules, ThreadedOptions(2));
  BatchStats bs;
  const auto results =
      testing::ExecuteTextBatch(engine, texts, 5, Strategy::kSpecQp, &bs);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_FALSE(results[1].ok());
  EXPECT_TRUE(results[2].ok());
  EXPECT_EQ(bs.batch_size, 2u) << "only parsed queries enter the batch";

  // The good slots match stand-alone text execution.
  Engine reference(&fx.store, &fx.rules, ThreadedOptions(1));
  const auto expected0 =
      testing::ExecuteText(reference, texts[0], 5, Strategy::kSpecQp);
  ASSERT_TRUE(expected0.ok());
  ExpectIdenticalRows(expected0.value(), results[0].value(), "text slot 0");
  const auto expected2 =
      testing::ExecuteText(reference, texts[2], 5, Strategy::kSpecQp);
  ASSERT_TRUE(expected2.ok());
  ExpectIdenticalRows(expected2.value(), results[2].value(), "text slot 2");
}

TEST(BatchExecutionTest, EmptyAndSingletonBatches) {
  MusicFixture fx = MakeMusicFixture();
  Engine engine(&fx.store, &fx.rules, ThreadedOptions(2));
  BatchStats bs;
  EXPECT_TRUE(
      testing::ExecuteBatch(engine, std::span<const Query>(), 5, Strategy::kSpecQp, &bs)
          .empty());
  EXPECT_EQ(bs.batch_size, 0u);

  const std::vector<Query> one = {fx.TypeQuery({"singer"})};
  const auto results = testing::ExecuteBatch(engine, one, 5, Strategy::kSpecQp, &bs);
  ASSERT_EQ(results.size(), 1u);
  Engine reference(&fx.store, &fx.rules, ThreadedOptions(1));
  ExpectIdenticalRows(testing::Execute(reference, one[0], 5, Strategy::kSpecQp),
                      results[0], "singleton batch");
}

TEST(BatchExecutionTest, MixedXkgTwitterWorkloadQueriesBitIdentical) {
  // Down-scaled XKG and Twitter generator datasets (same shape as the
  // bench bundles, sized for a unit test): a mixed batch of real workload
  // queries per dataset must stay bit-identical to sequential execution
  // across strategies and thread counts.
  XkgConfig xkg_config;
  xkg_config.num_entities = 1500;
  xkg_config.num_domains = 4;
  xkg_config.types_per_domain = 6;
  const XkgDataset xkg = GenerateXkg(xkg_config);
  XkgWorkloadConfig xkg_workload;
  xkg_workload.queries_per_size = 2;  // 2-, 3-, 4-pattern queries
  xkg_workload.min_relaxations = 3;
  const std::vector<Query> xkg_queries = MakeXkgWorkload(xkg, xkg_workload);
  ASSERT_FALSE(xkg_queries.empty());

  TwitterConfig twitter_config;
  twitter_config.num_tweets = 4000;
  twitter_config.num_topics = 6;
  twitter_config.tags_per_topic = 10;
  const TwitterDataset twitter = GenerateTwitter(twitter_config);
  TwitterWorkloadConfig twitter_workload;
  twitter_workload.queries_per_size = 3;  // 2- and 3-pattern queries
  twitter_workload.min_relaxations = 2;
  twitter_workload.min_relaxed_answers = 5;
  const std::vector<Query> twitter_queries =
      MakeTwitterWorkload(twitter, twitter_workload);
  ASSERT_FALSE(twitter_queries.empty());

  const struct {
    const char* name;
    const TripleStore* store;
    const RelaxationIndex* rules;
    const std::vector<Query>* workload;
  } bundles[] = {
      {"xkg", &xkg.store, &xkg.rules, &xkg_queries},
      {"twitter", &twitter.store, &twitter.rules, &twitter_queries},
  };
  for (const auto& bundle : bundles) {
    for (Strategy strategy : kStrategies) {
      Engine reference(bundle.store, bundle.rules, ThreadedOptions(1));
      std::vector<QueryResponse> expected;
      for (const Query& query : *bundle.workload) {
        expected.push_back(testing::Execute(reference, query, 10, strategy));
      }
      for (int threads : kThreadCounts) {
        Engine engine(bundle.store, bundle.rules, ThreadedOptions(threads));
        const auto actual =
            testing::ExecuteBatch(engine, *bundle.workload, 10, strategy);
        for (size_t i = 0; i < bundle.workload->size(); ++i) {
          ExpectIdenticalRows(expected[i], actual[i],
                              std::string(bundle.name) + "/" +
                                  std::string(StrategyName(strategy)) +
                                  "/threads=" + std::to_string(threads) +
                                  "/query=" + std::to_string(i));
        }
      }
    }
  }
}

TEST(BatchExecutionTest, ChainRelaxationsInBatch) {
  // Chain rules add hop patterns to the shared-scan plan; batch answers
  // must still match sequential ones.
  TripleStore store;
  store.Add("ana", "plays", "guitar", 100.0);
  store.Add("ben", "plays", "bass", 90.0);
  store.Add("cem", "plays", "ukulele", 80.0);
  store.Add("dia", "plays", "piano", 70.0);
  store.Add("eli", "plays", "bass", 60.0);
  store.Add("bass", "relatedTo", "guitar", 1.0);
  store.Add("ukulele", "relatedTo", "guitar", 1.0);
  for (const char* person : {"ana", "ben", "cem", "dia", "eli"}) {
    store.Add(person, "type", "person", 50.0);
  }
  store.Finalize();

  RelaxationIndex rules;
  ChainRelaxationRule rule;
  rule.from = PatternKey{kInvalidTermId, store.MustId("plays"),
                         store.MustId("guitar")};
  rule.hop1_predicate = store.MustId("plays");
  rule.hop2_predicate = store.MustId("relatedTo");
  rule.hop2_object = store.MustId("guitar");
  rule.weight = 0.8;
  ASSERT_TRUE(rules.AddChainRule(rule).ok());

  Query query;
  const VarId s = query.GetOrAddVariable("s");
  query.AddPattern(TriplePattern(PatternTerm::Var(s),
                                 PatternTerm::Const(store.MustId("plays")),
                                 PatternTerm::Const(store.MustId("guitar"))));
  query.AddPattern(TriplePattern(PatternTerm::Var(s),
                                 PatternTerm::Const(store.MustId("type")),
                                 PatternTerm::Const(store.MustId("person"))));
  query.AddProjection(s);
  const std::vector<Query> batch = {query, query};

  for (Strategy strategy : kStrategies) {
    Engine reference(&store, &rules, ThreadedOptions(1));
    const auto expected = testing::Execute(reference, query, 10, strategy);
    Engine engine(&store, &rules, ThreadedOptions(4));
    const auto results = testing::ExecuteBatch(engine, batch, 10, strategy);
    for (size_t i = 0; i < batch.size(); ++i) {
      ExpectIdenticalRows(expected, results[i],
                          std::string(StrategyName(strategy)) + "/chain/" +
                              std::to_string(i));
    }
  }
}

}  // namespace
}  // namespace specqp
