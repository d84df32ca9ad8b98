// End-to-end determinism of parallel execution: for every strategy and
// every thread count, Engine::Execute must return bit-identical rows
// (bindings AND scores) to the serial engine — the acceptance bar for the
// partitioned rank-join refactor.

#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
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

EngineOptions ParallelOptions(int threads) {
  EngineOptions options;
  options.num_threads = threads;
  options.parallel_min_rows = 0;  // force parallel trees even on tiny data
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

TEST(ParallelExecutionTest, MusicFixtureIdenticalAcrossThreadCounts) {
  MusicFixture fx = MakeMusicFixture();
  const std::vector<std::vector<std::string>> queries = {
      {"singer", "lyricist"},
      {"singer", "lyricist", "guitarist"},
      {"singer", "lyricist", "guitarist", "pianist"},
      {"jazz_singer"},
  };
  for (size_t k : {1u, 3u, 10u}) {
    for (const auto& names : queries) {
      const Query query = fx.TypeQuery(names);
      for (Strategy strategy : kStrategies) {
        Engine serial(&fx.store, &fx.rules, ParallelOptions(1));
        const auto expected = testing::Execute(serial, query, k, strategy);
        for (int threads : kThreadCounts) {
          Engine engine(&fx.store, &fx.rules, ParallelOptions(threads));
          EXPECT_EQ(engine.num_threads(), threads);
          const auto actual = testing::Execute(engine, query, k, strategy);
          ExpectIdenticalRows(
              expected, actual,
              std::string(StrategyName(strategy)) + "/threads=" +
                  std::to_string(threads) + "/k=" + std::to_string(k));
          if (threads > 1 && query.num_patterns() >= 2) {
            EXPECT_EQ(actual.stats.parallel_partitions,
                      static_cast<uint64_t>(threads))
                << "parallel tree should have been built";
          } else {
            EXPECT_EQ(actual.stats.parallel_partitions, 0u);
          }
        }
      }
    }
  }
}

TEST(ParallelExecutionTest, RandomStoresIdenticalAcrossThreadCounts) {
  for (int seed = 0; seed < 4; ++seed) {
    Rng rng(static_cast<uint64_t>(seed) * 7919 + 13);
    specqp::testing::RandomStoreConfig cfg;
    cfg.num_subjects = 30;
    cfg.num_predicates = 3;
    cfg.num_objects = 10;
    cfg.num_triples = 220;
    TripleStore store = MakeRandomStore(&rng, cfg);
    RelaxationIndex rules = MakeRandomRules(&rng, store, 4);

    for (int trial = 0; trial < 4; ++trial) {
      const size_t num_patterns = 2 + rng.NextBounded(3);
      const Query query = MakeRandomStarQuery(&rng, store, num_patterns);
      for (Strategy strategy : kStrategies) {
        Engine serial(&store, &rules, ParallelOptions(1));
        const auto expected = testing::Execute(serial, query, 10, strategy);
        for (int threads : {2, 8}) {
          Engine engine(&store, &rules, ParallelOptions(threads));
          const auto actual = testing::Execute(engine, query, 10, strategy);
          ExpectIdenticalRows(
              expected, actual,
              std::string(StrategyName(strategy)) + "/seed=" +
                  std::to_string(seed) + "/threads=" +
                  std::to_string(threads));
        }
      }
    }
  }
}

TEST(ParallelExecutionTest, ChainRelaxationsIdenticalUnderPartitioning) {
  // A chain relaxation's second hop does not bind the partition variable,
  // so its posting list is replicated (unpartitioned) across partition
  // trees — results must still be bit-identical to serial.
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

  for (Strategy strategy : kStrategies) {
    Engine serial(&store, &rules, ParallelOptions(1));
    const auto expected = testing::Execute(serial, query, 10, strategy);
    for (int threads : {2, 8}) {
      Engine engine(&store, &rules, ParallelOptions(threads));
      const auto actual = testing::Execute(engine, query, 10, strategy);
      ExpectIdenticalRows(expected, actual,
                          std::string(StrategyName(strategy)) +
                              "/chain/threads=" + std::to_string(threads));
    }
  }
}

TEST(ParallelExecutionTest, NoCommonVariableFallsBackToSerial) {
  // Two patterns with no shared variable: no partition variable exists, so
  // the executor must build a serial tree — and still answer correctly.
  MusicFixture fx = MakeMusicFixture();
  Query query;
  const VarId s = query.GetOrAddVariable("s");
  const VarId t = query.GetOrAddVariable("t");
  query.AddPattern(TriplePattern(PatternTerm::Var(s),
                                 PatternTerm::Const(fx.type),
                                 PatternTerm::Const(fx.Id("singer"))));
  query.AddPattern(TriplePattern(PatternTerm::Var(t),
                                 PatternTerm::Const(fx.type),
                                 PatternTerm::Const(fx.Id("pianist"))));
  query.AddProjection(s);
  query.AddProjection(t);

  Engine serial(&fx.store, &fx.rules, ParallelOptions(1));
  const auto expected = testing::Execute(serial, query, 5, Strategy::kNoRelax);
  Engine parallel(&fx.store, &fx.rules, ParallelOptions(8));
  const auto actual = testing::Execute(parallel, query, 5, Strategy::kNoRelax);
  EXPECT_EQ(actual.stats.parallel_partitions, 0u);
  ExpectIdenticalRows(expected, actual, "cross-product query");
}

TEST(ParallelExecutionTest, SizeThresholdKeepsSmallQueriesSerial) {
  MusicFixture fx = MakeMusicFixture();
  EngineOptions options;
  options.num_threads = 4;
  options.parallel_min_rows = 1u << 20;  // far above the fixture's lists
  Engine engine(&fx.store, &fx.rules, options);
  const auto result = testing::Execute(engine, fx.TypeQuery({"singer", "lyricist"}), 5,
                                     Strategy::kTrinit);
  EXPECT_EQ(result.stats.parallel_partitions, 0u);
  EXPECT_FALSE(result.rows.empty());
}

TEST(ResolveNumThreadsTest, ExplicitRequestWinsAndIsClamped) {
  EXPECT_EQ(ResolveNumThreads(1), 1);
  EXPECT_EQ(ResolveNumThreads(8), 8);
  EXPECT_EQ(ResolveNumThreads(100000), 256);
}

TEST(ResolveNumThreadsTest, EnvResolvedOncePerProcess) {
  // The environment fallback is read exactly once per process and
  // memoised: mid-run setenv cannot skew later engines, and concurrent
  // Submit paths never race a getenv. (The resolved value reflects
  // $SPECQP_THREADS at first resolution — e.g. 4 under the tsan test
  // preset, 1 when unset.)
  const int resolved = ResolveNumThreads(0);
  EXPECT_GE(resolved, 1);
  EXPECT_EQ(ResolveNumThreads(-1), resolved);

  ::setenv("SPECQP_THREADS", "200", /*overwrite=*/1);
  EXPECT_EQ(ResolveNumThreads(0), resolved)
      << "mid-run env mutation must not change the resolved fallback";
  ::setenv("SPECQP_THREADS", "garbage", 1);
  EXPECT_EQ(ResolveNumThreads(0), resolved);
  ::unsetenv("SPECQP_THREADS");
  EXPECT_EQ(ResolveNumThreads(-1), resolved);

  // Explicit requests still win over the memoised fallback.
  EXPECT_EQ(ResolveNumThreads(3), 3);
}

}  // namespace
}  // namespace specqp
