// One request pipeline under concurrency: client threads share one engine
// and mix immediate Submit, windowed Submit, Explain and Warm in a seeded
// interleaving over the XKG and Twitter workloads, with plan racing and
// re-planning forced on. Every request plans against the same statistics
// catalog and selectivity memos; they are locked, and everything else a
// request touches is local to it. So every answer, plan and PLANGEN
// diagnostic must be bit-identical to a serial engine's. A second test
// keeps several multi-query windows in service at once on an 8-shard
// bundle whose cache evicts. Under the tsan preset this is the data-race
// gate for that sharing.

#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/request.h"
#include "datasets/twitter_generator.h"
#include "datasets/workload.h"
#include "datasets/xkg_generator.h"
#include "rdf/sharded_store.h"
#include "rdf/store_io.h"
#include "test_util.h"
#include "util/random.h"
#include "util/string_util.h"

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

#if defined(SPECQP_SANITIZED_BUILD)
constexpr int kOpsPerThread = 12;
#else
constexpr int kOpsPerThread = 60;
#endif
constexpr int kClientThreads = 8;
constexpr Strategy kStrategies[] = {Strategy::kSpecQp, Strategy::kTrinit,
                                    Strategy::kNoRelax};
constexpr size_t kKs[] = {10, 15};

struct Dataset {
  const TripleStore* store;
  const RelaxationIndex* rules;
  std::vector<Query> queries;
};

enum class OpKind { kImmediate, kWindow, kExplain, kWarm };

// One client call, drawn before any thread starts.
struct Op {
  OpKind kind = OpKind::kImmediate;
  size_t dataset = 0;
  size_t query = 0;
  Strategy strategy = Strategy::kSpecQp;
  size_t k = 10;
  QueryResponse response;  // filled by the client thread (not for kWarm)
};

void ExpectSamePlanning(const QueryResponse& expected,
                        const QueryResponse& actual,
                        const std::string& label) {
  EXPECT_EQ(actual.plan.ToString(), expected.plan.ToString()) << label;
  const PlanDiagnostics& e = expected.diagnostics;
  const PlanDiagnostics& a = actual.diagnostics;
  EXPECT_EQ(a.cardinality_estimate, e.cardinality_estimate) << label;
  EXPECT_EQ(a.eq_k, e.eq_k) << label;
  EXPECT_EQ(a.plan_confidence, e.plan_confidence) << label;
  EXPECT_EQ(a.least_confident_pattern, e.least_confident_pattern) << label;
  EXPECT_EQ(a.has_runner_up, e.has_runner_up) << label;
  EXPECT_EQ(a.runner_up.ToString(), e.runner_up.ToString()) << label;
  ASSERT_EQ(a.decisions.size(), e.decisions.size()) << label;
  for (size_t i = 0; i < e.decisions.size(); ++i) {
    EXPECT_EQ(a.decisions[i].eq_prime_top, e.decisions[i].eq_prime_top)
        << label << " decision " << i;
    EXPECT_EQ(a.decisions[i].relax, e.decisions[i].relax)
        << label << " decision " << i;
    EXPECT_EQ(a.decisions[i].confidence, e.decisions[i].confidence)
        << label << " decision " << i;
  }
}

void ExpectSameRows(const QueryResponse& expected, const QueryResponse& actual,
                    const std::string& label) {
  ASSERT_EQ(actual.rows.size(), expected.rows.size()) << label;
  for (size_t i = 0; i < expected.rows.size(); ++i) {
    EXPECT_EQ(actual.rows[i].bindings, expected.rows[i].bindings)
        << label << " rank " << i;
    EXPECT_EQ(actual.rows[i].score, expected.rows[i].score)
        << label << " rank " << i;
  }
}

TEST(ConcurrentServingTest, MixedEntryPointsMatchSerialReference) {
  XkgConfig xkg_config;
  xkg_config.num_entities = 6000;
  xkg_config.num_domains = 8;
  const XkgDataset xkg = GenerateXkg(xkg_config);
  XkgWorkloadConfig xkg_workload;
  xkg_workload.min_relaxations = 8;
  TwitterConfig twitter_config;
  twitter_config.num_tweets = 20000;
  twitter_config.num_topics = 12;
  const TwitterDataset twitter = GenerateTwitter(twitter_config);
  TwitterWorkloadConfig twitter_workload;
  twitter_workload.min_relaxations = 4;
  twitter_workload.min_relaxed_answers = 10;
  const std::vector<Dataset> datasets = {
      {&xkg.store, &xkg.rules, MakeXkgWorkload(xkg, xkg_workload)},
      {&twitter.store, &twitter.rules,
       MakeTwitterWorkload(twitter, twitter_workload)},
  };
  ASSERT_EQ(datasets[0].queries.size() + datasets[1].queries.size(), 116u);

  // The shared engines: a pool of 4, racing and re-planning forced on.
  EngineOptions options;
  options.num_threads = 4;
  options.speculate_threshold = 2.0;
  options.replan_divergence_factor = 8.0;
  std::vector<std::unique_ptr<Engine>> engines;
  for (const Dataset& dataset : datasets) {
    engines.push_back(
        std::make_unique<Engine>(dataset.store, dataset.rules, options));
  }

  // The seeded interleaving: each client's calls are drawn up front.
  std::vector<std::vector<Op>> schedule(kClientThreads);
  for (int t = 0; t < kClientThreads; ++t) {
    Rng rng(1000 + static_cast<uint64_t>(t));
    for (int i = 0; i < kOpsPerThread; ++i) {
      Op op;
      op.kind = static_cast<OpKind>(rng.NextBounded(4));
      op.dataset = rng.NextBounded(datasets.size());
      op.query = rng.NextBounded(datasets[op.dataset].queries.size());
      op.strategy = kStrategies[rng.NextBounded(3)];
      op.k = kKs[rng.NextBounded(2)];
      schedule[t].push_back(std::move(op));
    }
  }

  std::vector<std::thread> clients;
  for (int t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&, t] {
      for (Op& op : schedule[t]) {
        Engine& engine = *engines[op.dataset];
        const Query& query = datasets[op.dataset].queries[op.query];
        QueryRequest request =
            QueryRequest::FromQuery(query, op.k, op.strategy);
        switch (op.kind) {
          case OpKind::kImmediate:
            request.admission = QueryRequest::Admission::kImmediate;
            op.response = engine.Submit(std::move(request)).get();
            break;
          case OpKind::kWindow:
            op.response = engine.Submit(std::move(request)).get();
            break;
          case OpKind::kExplain:
            op.response = engine.Explain(request);
            break;
          case OpKind::kWarm:
            engine.Warm(query);
            break;
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();

  // The serial reference, one engine per dataset, per call drawn.
  EngineOptions serial_options;
  serial_options.num_threads = 1;
  std::vector<std::unique_ptr<Engine>> serial;
  for (const Dataset& dataset : datasets) {
    serial.push_back(std::make_unique<Engine>(dataset.store, dataset.rules,
                                              serial_options));
  }
  size_t executed = 0;
  for (int t = 0; t < kClientThreads; ++t) {
    for (size_t i = 0; i < schedule[t].size(); ++i) {
      const Op& op = schedule[t][i];
      if (op.kind == OpKind::kWarm) continue;
      const std::string label = StrFormat(
          "client %d op %zu: dataset %zu q%zu %s k=%zu kind=%d", t, i,
          op.dataset, op.query, std::string(StrategyName(op.strategy)).c_str(),
          op.k, static_cast<int>(op.kind));
      ASSERT_TRUE(op.response.ok()) << label << ": "
                                    << op.response.status.ToString();
      const QueryResponse reference =
          testing::Execute(*serial[op.dataset],
                           datasets[op.dataset].queries[op.query], op.k,
                           op.strategy);
      ExpectSamePlanning(reference, op.response, label);
      if (op.kind == OpKind::kExplain) {
        EXPECT_TRUE(op.response.rows.empty()) << label;
        continue;
      }
      ExpectSameRows(reference, op.response, label);
      ++executed;
    }
  }
  EXPECT_GT(executed, 0u);
}

// Several multi-query windows in service at once: four dispatch slots on
// an 8-shard bundle whose posting cache holds about half its working set,
// fed by clients that submit windowed bursts without waiting. While every
// slot is busy the bursts pile up into windows of several queries, so
// eviction, shared-scan derivation and per-shard scatter-gather run in
// concurrent windows. Every answer must match a serial in-memory engine's.
TEST(ConcurrentServingTest, ConcurrentWindowsOnEvictingBundleMatchSerial) {
  XkgConfig xkg_config;
  xkg_config.num_entities = 6000;
  xkg_config.num_domains = 8;
  const XkgDataset xkg = GenerateXkg(xkg_config);
  XkgWorkloadConfig xkg_workload;
  xkg_workload.min_relaxations = 8;
  const std::vector<Query> queries = MakeXkgWorkload(xkg, xkg_workload);
  ASSERT_EQ(queries.size(), 66u);

  const std::string bundle = ::testing::TempDir() + "/concurrent_windows";
  std::filesystem::remove_all(bundle);
  ShardBundleOptions bundle_options;
  bundle_options.shard_count = 8;
  ASSERT_TRUE(WriteShardBundle(xkg.store, bundle, bundle_options).ok());

  // The working set: what one pass over the workload leaves resident in
  // an unbounded cache.
  EngineOptions options;
  options.num_threads = 4;
  size_t working_set = 0;
  {
    auto opened = Engine::OpenFromPath(bundle, &xkg.rules, options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    for (const Query& query : queries) {
      (void)testing::Execute(*opened.value().engine, query, 10,
                             Strategy::kSpecQp);
    }
    working_set = opened.value().engine->postings().bytes();
  }
  ASSERT_GT(working_set, 0u);
  options.cache_budget_bytes = working_set / 2;
  auto opened = Engine::OpenFromPath(bundle, &xkg.rules, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Engine& engine = *opened.value().engine;

  constexpr int kClients = 4;
#if defined(SPECQP_SANITIZED_BUILD)
  constexpr int kBursts = 2;
#else
  constexpr int kBursts = 6;
#endif
  constexpr int kBurst = 12;
  struct Submitted {
    size_t query = 0;
    Strategy strategy = Strategy::kSpecQp;
    size_t k = 10;
    std::future<QueryResponse> future;
  };
  std::vector<std::vector<Submitted>> submitted(kClients);
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      Rng rng(2000 + static_cast<uint64_t>(t));
      for (int burst = 0; burst < kBursts; ++burst) {
        for (int i = 0; i < kBurst; ++i) {
          Submitted one;
          one.query = rng.NextBounded(queries.size());
          one.strategy = rng.NextBounded(2) == 0 ? Strategy::kSpecQp
                                                 : Strategy::kTrinit;
          one.k = kKs[rng.NextBounded(2)];
          one.future = engine.Submit(
              QueryRequest::FromQuery(queries[one.query], one.k,
                                      one.strategy));
          submitted[t].push_back(std::move(one));
        }
        // The next burst follows once this one's oldest answer is back,
        // so windows keep forming behind busy slots.
        submitted[t][static_cast<size_t>(burst) * kBurst].future.wait();
      }
    });
  }
  for (std::thread& client : clients) client.join();

  EngineOptions serial_options;
  serial_options.num_threads = 1;
  Engine serial(&xkg.store, &xkg.rules, serial_options);
  for (int t = 0; t < kClients; ++t) {
    for (size_t i = 0; i < submitted[t].size(); ++i) {
      Submitted& one = submitted[t][i];
      const std::string label =
          StrFormat("client %d request %zu: q%zu %s k=%zu", t, i, one.query,
                    std::string(StrategyName(one.strategy)).c_str(), one.k);
      const QueryResponse response = one.future.get();
      ASSERT_TRUE(response.ok()) << label << ": "
                                 << response.status.ToString();
      ExpectSameRows(testing::Execute(serial, queries[one.query], one.k,
                                      one.strategy),
                     response, label);
    }
  }
  const AdmissionController::Stats stats = engine.admission().stats();
  EXPECT_EQ(stats.submitted,
            static_cast<uint64_t>(kClients) * kBursts * kBurst);
  EXPECT_GT(stats.max_window_size, 1u) << "no multi-query window formed";
  EXPECT_GT(engine.postings().evictions(), 0u);
}

}  // namespace
}  // namespace specqp
