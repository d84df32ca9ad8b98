// End-to-end determinism of parallel execution: for every strategy and
// every thread count, Engine::Execute must return bit-identical rows
// (bindings AND scores) to the serial engine — the acceptance bar for the
// partitioned rank-join refactor. Also the size rule that chooses between
// a serial and a partitioned tree.

#include <atomic>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/plan_executor.h"
#include "test_util.h"
#include "topk/top_k.h"
#include "util/thread_pool.h"

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

// A 2-pattern star on ?s whose original patterns match 10 triples each,
// while each pattern's simple relaxation scans a list of 750 entries and
// its chain rule two hop lists of 375. TriniT's tree scans 3,020 entries
// and a NoRelax tree 20; the originals plus either kind of rule alone stay
// at 1,520, under the default threshold.
struct RelaxationHeavyStar {
  TripleStore store;
  RelaxationIndex rules;
  Query query;
};

RelaxationHeavyStar MakeRelaxationHeavyStar() {
  RelaxationHeavyStar fx;
  TripleStore& store = fx.store;
  const auto name = [](const char* prefix, size_t i) {
    return prefix + std::to_string(i);
  };
  const auto score = [](size_t i, size_t salt) {
    return 1.0 + static_cast<double>((i * 37 + salt * 11) % 97);
  };
  for (size_t i = 0; i < 10; ++i) {
    store.Add(name("p", i), "type", "singer", score(i, 1));
    store.Add(name("p", i + 5), "plays", "guitar", score(i, 2));
  }
  for (size_t i = 0; i < 750; ++i) {
    store.Add(name("p", i), "type", "vocalist", score(i, 3));
    store.Add(name("p", i + 100), "plays", "bass", score(i, 4));
  }
  for (size_t i = 0; i < 375; ++i) {
    store.Add(name("p", i + 50), "likes", name("album", i), score(i, 5));
    store.Add(name("album", i), "genre", "pop", score(i, 6));
    store.Add(name("p", i + 150), "owns", name("instrument", i), score(i, 7));
    store.Add(name("instrument", i), "kind", "strings", score(i, 8));
  }
  store.Finalize();

  const PatternKey singer{kInvalidTermId, store.MustId("type"),
                          store.MustId("singer")};
  const PatternKey guitar{kInvalidTermId, store.MustId("plays"),
                          store.MustId("guitar")};
  SPECQP_CHECK(fx.rules
                   .AddRule(RelaxationRule{
                       singer,
                       {kInvalidTermId, store.MustId("type"),
                        store.MustId("vocalist")},
                       0.8})
                   .ok());
  SPECQP_CHECK(fx.rules
                   .AddRule(RelaxationRule{
                       guitar,
                       {kInvalidTermId, store.MustId("plays"),
                        store.MustId("bass")},
                       0.7})
                   .ok());
  ChainRelaxationRule chain;
  chain.from = singer;
  chain.hop1_predicate = store.MustId("likes");
  chain.hop2_predicate = store.MustId("genre");
  chain.hop2_object = store.MustId("pop");
  chain.weight = 0.6;
  SPECQP_CHECK(fx.rules.AddChainRule(chain).ok());
  chain.from = guitar;
  chain.hop1_predicate = store.MustId("owns");
  chain.hop2_predicate = store.MustId("kind");
  chain.hop2_object = store.MustId("strings");
  chain.weight = 0.5;
  SPECQP_CHECK(fx.rules.AddChainRule(chain).ok());

  const VarId s = fx.query.GetOrAddVariable("s");
  for (const PatternKey& key : {singer, guitar}) {
    fx.query.AddPattern(TriplePattern(PatternTerm::Var(s),
                                      PatternTerm::Const(key.p),
                                      PatternTerm::Const(key.o)));
  }
  fx.query.AddProjection(s);
  return fx;
}

// The size rule counts every list the tree scans: TriniT's relaxation and
// chain-hop lists together clear the default threshold although the
// original patterns alone do not, while a NoRelax tree scans the originals
// only.
TEST(ParallelExecutionTest, RelaxationListsCountTowardTheThreshold) {
  const RelaxationHeavyStar fx = MakeRelaxationHeavyStar();
  EngineOptions serial_options;
  serial_options.num_threads = 1;
  EngineOptions parallel_options;
  parallel_options.num_threads = 2;  // default parallel_min_rows
  for (size_t k : {1u, 5u, 20u}) {
    for (Strategy strategy : kStrategies) {
      const std::string label = std::string(StrategyName(strategy)) +
                                "/k=" + std::to_string(k);
      Engine serial(&fx.store, &fx.rules, serial_options);
      const auto expected = testing::Execute(serial, fx.query, k, strategy);
      Engine parallel(&fx.store, &fx.rules, parallel_options);
      const auto actual = testing::Execute(parallel, fx.query, k, strategy);
      ASSERT_FALSE(expected.rows.empty()) << label;
      ExpectIdenticalRows(expected, actual, label);
      if (strategy == Strategy::kTrinit) {
        EXPECT_EQ(actual.stats.parallel_partitions, 2u) << label;
      } else if (strategy == Strategy::kNoRelax) {
        EXPECT_EQ(actual.stats.parallel_partitions, 0u) << label;
      }
    }
  }
}

// A sharded-source facade over an owned store that counts index reads.
class CountingSource : public ShardedTripleSource {
 public:
  explicit CountingSource(const TripleStore* inner) : inner_(inner) {}

  size_t NumTriples() const override { return inner_->size(); }
  const Triple& TripleAt(uint32_t global_index) const override {
    return inner_->triple(global_index);
  }
  std::span<const uint32_t> Match(const PatternKey& key) const override {
    matches_.fetch_add(1, std::memory_order_relaxed);
    return inner_->MatchIndices(key);
  }

  uint64_t matches() const { return matches_.load(); }

 private:
  const TripleStore* inner_;
  mutable std::atomic<uint64_t> matches_{0};
};

// A warm Build sizes its decision from the resident posting lists: once a
// partitioned execution has run cold, building and draining it again reads
// the store's index not once, and the sizing moves no cache counter.
TEST(ParallelExecutionTest, WarmBuildSizesFromListsNotTheStoreIndex) {
  const RelaxationHeavyStar fx = MakeRelaxationHeavyStar();
  const CountingSource source(&fx.store);
  Dictionary dict;
  for (TermId id = 0; id < fx.store.dict().size(); ++id) {
    dict.Intern(fx.store.dict().Name(id));
  }
  const TripleStore store =
      TripleStore::FromShardedSource(std::move(dict), &source);
  PostingListCache postings(&store);
  PlanExecutor executor(&store, &postings, &fx.rules);  // sizes the tree
  PlanExecutor unsized(&store, &postings, &fx.rules,
                       PlanExecutor::Options{/*parallel_min_rows=*/0});
  ThreadPool pool(1);  // two threads: the caller and one worker
  const QueryPlan plan = QueryPlan::TrinitPlan(fx.query.num_patterns());

  const auto build_and_drain = [&](PlanExecutor& plan_executor) {
    ExecStats stats;
    ExecContext ctx(&stats, &pool);
    auto root = plan_executor.Build(fx.query, plan, &ctx);
    auto rows = PullTopK(root.get(), 20, &stats);
    EXPECT_EQ(stats.parallel_partitions, 2u);
    return rows;
  };
  const auto counters = [&] {
    return std::vector<uint64_t>{postings.hits(), postings.misses(),
                                 postings.evictions()};
  };
  const auto delta = [](const std::vector<uint64_t>& before,
                        const std::vector<uint64_t>& after) {
    std::vector<uint64_t> d(before.size());
    for (size_t i = 0; i < d.size(); ++i) d[i] = after[i] - before[i];
    return d;
  };

  const auto cold = build_and_drain(executor);
  ASSERT_GT(source.matches(), 0u) << "the cold build reads the index";
  const uint64_t matches_after_cold = source.matches();
  const auto before_warm = counters();
  const auto warm = build_and_drain(executor);
  const auto sized_delta = delta(before_warm, counters());
  EXPECT_EQ(source.matches(), matches_after_cold)
      << "the warm Build probed the store's index";
  ASSERT_EQ(warm.size(), cold.size());
  for (size_t i = 0; i < cold.size(); ++i) {
    EXPECT_EQ(warm[i].bindings, cold[i].bindings) << "rank " << i;
    EXPECT_EQ(warm[i].score, cold[i].score) << "rank " << i;
  }

  // The same partitioned tree built without the sizing walk (threshold 0)
  // moves the cache's counters exactly as much.
  const auto before_unsized = counters();
  (void)build_and_drain(unsized);
  EXPECT_EQ(delta(before_unsized, counters()), sized_delta);
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
