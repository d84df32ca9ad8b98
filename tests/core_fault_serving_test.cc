// Engine-level fault-tolerant serving: strict vs degraded answers over a
// bundle with quarantined shards, planning state cleared by a runtime
// quarantine, mid-query fault invalidation (kIoError, then partial
// answers), block-decode and store-open fault surfacing on single-file
// backends — on both admission paths — an engine fault plan
// that arms once per plan, admission-side overload shedding (queue depth,
// also under concurrent submitters, and hopeless deadlines),
// SubmitWithRetry semantics, and cancellation responsiveness during
// sharded scatter-gather execution.

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <future>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "rdf/mapped_fault.h"
#include "rdf/sharded_store.h"
#include "rdf/store_io.h"
#include "test_util.h"
#include "util/fault_injector.h"
#include "util/random.h"

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

std::string FreshDir(const char* name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// The store every serving test runs against: random but seeded, split into
// a 4-shard subject-hashed bundle.
struct Fixture {
  TripleStore store;
  RelaxationIndex rules;
  std::vector<Query> queries;
  std::string bundle_dir;
};

Fixture MakeFixture(const char* dir_name, size_t triples = 3000) {
  Fixture fx;
  Rng rng(23);
  specqp::testing::RandomStoreConfig cfg;
  cfg.num_subjects = 120;
  cfg.num_predicates = 6;
  cfg.num_objects = 25;
  cfg.num_triples = triples;
  fx.store = specqp::testing::MakeRandomStore(&rng, cfg);
  fx.rules = specqp::testing::MakeRandomRules(&rng, fx.store);
  for (int i = 0; i < 6; ++i) {
    fx.queries.push_back(
        specqp::testing::MakeRandomStarQuery(&rng, fx.store, 3));
  }
  fx.bundle_dir = FreshDir(dir_name);
  ShardBundleOptions bundle;
  bundle.shard_count = 4;
  SPECQP_CHECK(WriteShardBundle(fx.store, fx.bundle_dir, bundle).ok());
  return fx;
}

// The store a degraded bundle with `failed_shard` out must behave like:
// the same dictionary (TermIds preserved), survivors' triples only.
TripleStore SurvivorStore(const TripleStore& store, uint32_t failed_shard) {
  TripleStore out;
  for (TermId id = 0; id < store.dict().size(); ++id) {
    out.dict().Intern(store.dict().Name(id));
  }
  for (const Triple& t : store.triples()) {
    if (BundleShardOfTriple(t, bundle::HashScheme::kSubject, 4) !=
        failed_shard) {
      out.AddEncoded(t.s, t.p, t.o, t.score);
    }
  }
  out.Finalize();
  return out;
}

QueryResponse SubmitVia(Engine& engine, const Query& query,
                        QueryRequest::Admission admission) {
  QueryRequest request = QueryRequest::FromQuery(query, 10);
  request.admission = admission;
  return engine.Submit(std::move(request)).get();
}

QueryResponse SubmitImmediate(Engine& engine, const Query& query) {
  return SubmitVia(engine, query, QueryRequest::Admission::kImmediate);
}

// The serving contract holds on both admission paths: kImmediate runs the
// request on the calling thread, kWindow through a dispatched window (of
// one request, so every windowed Submit dispatches at once).
constexpr QueryRequest::Admission kAdmissionModes[] = {
    QueryRequest::Admission::kImmediate, QueryRequest::Admission::kWindow};

EngineOptions ServingOptions(QueryRequest::Admission admission) {
  EngineOptions options;
  options.num_threads = 1;
  if (admission == QueryRequest::Admission::kWindow) {
    options.admission_max_batch = 1;
  }
  return options;
}

const char* AdmissionName(QueryRequest::Admission admission) {
  return admission == QueryRequest::Admission::kWindow ? "window"
                                                       : "immediate";
}

// Every test leaves the process-wide injector disarmed, whatever path it
// took to arm it (EngineOptions::fault_plan or ScopedFaultPlan).
class FaultServingTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Global().Disarm(); }
};

TEST_F(FaultServingTest, StrictServingRefusesWhileAShardIsOut) {
  Fixture fx = MakeFixture("fsv_strict");
  EngineOptions options;
  options.num_threads = 1;
  options.allow_quarantine = true;  // isolate, but do NOT serve degraded
  options.fault_plan = "shard.open.1=1";
  auto opened = Engine::OpenFromPath(fx.bundle_dir, &fx.rules, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ASSERT_EQ(opened.value().sharded->ShardsFailed(), 1u);
  FaultInjector::Global().Disarm();

  // Immediate path.
  QueryResponse immediate =
      SubmitImmediate(*opened.value().engine, fx.queries[0]);
  EXPECT_EQ(immediate.status.code(), StatusCode::kUnavailable)
      << immediate.status.ToString();
  EXPECT_TRUE(immediate.rows.empty());
  EXPECT_FALSE(immediate.partial);
  EXPECT_EQ(immediate.stats.shards_failed, 1u);
  EXPECT_EQ(immediate.stats.shards_total, 4u);

  // Windowed path: the whole window is refused at dispatch.
  QueryResponse windowed =
      opened.value().engine->Submit(QueryRequest::FromQuery(fx.queries[1]))
          .get();
  EXPECT_EQ(windowed.status.code(), StatusCode::kUnavailable)
      << windowed.status.ToString();
  EXPECT_EQ(windowed.stats.shards_failed, 1u);
  EXPECT_EQ(windowed.stats.shards_total, 4u);
}

TEST_F(FaultServingTest, DegradedServingAnswersFromTheSurvivors) {
  Fixture fx = MakeFixture("fsv_degraded");

  // Ground truth: an in-memory engine over exactly the surviving triples.
  const TripleStore survivors = SurvivorStore(fx.store, 1);
  EngineOptions base;
  base.num_threads = 1;
  Engine baseline(&survivors, &fx.rules, base);

  for (const QueryRequest::Admission admission : kAdmissionModes) {
    SCOPED_TRACE(AdmissionName(admission));
    EngineOptions options = ServingOptions(admission);
    options.degraded_reads = true;  // implies allow_quarantine
    options.fault_plan = "shard.open.1=1";
    auto opened = Engine::OpenFromPath(fx.bundle_dir, &fx.rules, options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    ASSERT_EQ(opened.value().sharded->ShardsFailed(), 1u);
    FaultInjector::Global().Disarm();

    for (size_t q = 0; q < fx.queries.size(); ++q) {
      QueryResponse expected = SubmitImmediate(baseline, fx.queries[q]);
      ASSERT_TRUE(expected.ok());
      QueryResponse got =
          SubmitVia(*opened.value().engine, fx.queries[q], admission);
      ASSERT_TRUE(got.ok()) << got.status.ToString();
      EXPECT_TRUE(got.partial) << "degraded answers must be marked partial";
      EXPECT_EQ(got.stats.shards_failed, 1u);
      EXPECT_EQ(got.stats.shards_total, 4u);
      ASSERT_EQ(got.rows.size(), expected.rows.size()) << "query " << q;
      for (size_t i = 0; i < expected.rows.size(); ++i) {
        EXPECT_EQ(got.rows[i].bindings, expected.rows[i].bindings)
            << "query " << q << " row " << i;
        EXPECT_EQ(got.rows[i].score, expected.rows[i].score)
            << "query " << q << " row " << i;
      }
    }
  }
}

// Every planning memo built before a runtime quarantine counts the shard
// set that no longer serves. The preflight clears the posting cache, the
// statistics catalog and the selectivity memos, so each answer after the
// quarantine — rows, plan and PLANGEN diagnostics — equals an engine's
// over the survivors' triples.
TEST_F(FaultServingTest, RuntimeQuarantinePlansOnTheSurvivors) {
  Fixture fx = MakeFixture("fsv_runtime_quarantine");
  std::vector<Query> queries;
  Rng rng(23);
  for (size_t i = 0; i < 40; ++i) {
    queries.push_back(
        specqp::testing::MakeRandomStarQuery(&rng, fx.store, 2 + i % 2));
  }
  const TripleStore survivors = SurvivorStore(fx.store, 1);
  EngineOptions base;
  base.num_threads = 1;
  Engine baseline(&survivors, &fx.rules, base);

  for (const QueryRequest::Admission admission : kAdmissionModes) {
    SCOPED_TRACE(AdmissionName(admission));
    EngineOptions options = ServingOptions(admission);
    options.degraded_reads = true;
    auto opened = Engine::OpenFromPath(fx.bundle_dir, &fx.rules, options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    Engine& engine = *opened.value().engine;
    for (const Query& query : queries) {
      ASSERT_TRUE(SubmitVia(engine, query, admission).ok());
    }

    opened.value().sharded->Quarantine(1, "runtime quarantine under test");
    for (size_t q = 0; q < queries.size(); ++q) {
      SCOPED_TRACE("query " + std::to_string(q));
      const QueryResponse expected = SubmitImmediate(baseline, queries[q]);
      const QueryResponse got = SubmitVia(engine, queries[q], admission);
      ASSERT_TRUE(expected.ok());
      ASSERT_TRUE(got.ok()) << got.status.ToString();
      EXPECT_TRUE(got.partial);
      EXPECT_EQ(got.rows.size(), expected.rows.size());
      for (size_t i = 0; i < std::min(got.rows.size(), expected.rows.size());
           ++i) {
        EXPECT_EQ(got.rows[i].bindings, expected.rows[i].bindings);
        EXPECT_EQ(got.rows[i].score, expected.rows[i].score);
      }
      EXPECT_EQ(got.plan.ToString(), expected.plan.ToString());
      const PlanDiagnostics& e = expected.diagnostics;
      const PlanDiagnostics& a = got.diagnostics;
      EXPECT_EQ(a.cardinality_estimate, e.cardinality_estimate);
      EXPECT_EQ(a.eq_k, e.eq_k);
      EXPECT_EQ(a.plan_confidence, e.plan_confidence);
      EXPECT_EQ(a.least_confident_pattern, e.least_confident_pattern);
      EXPECT_EQ(a.has_runner_up, e.has_runner_up);
      EXPECT_EQ(a.runner_up.ToString(), e.runner_up.ToString());
      EXPECT_EQ(a.decisions.size(), e.decisions.size());
      for (size_t i = 0; i < std::min(a.decisions.size(), e.decisions.size());
           ++i) {
        EXPECT_EQ(a.decisions[i].pattern_index, e.decisions[i].pattern_index);
        EXPECT_EQ(a.decisions[i].has_relaxations,
                  e.decisions[i].has_relaxations);
        EXPECT_EQ(a.decisions[i].eq_prime_top, e.decisions[i].eq_prime_top);
        EXPECT_EQ(a.decisions[i].relax, e.decisions[i].relax);
        EXPECT_EQ(a.decisions[i].confidence, e.decisions[i].confidence);
        EXPECT_EQ(a.decisions[i].bucket_disagreement,
                  e.decisions[i].bucket_disagreement);
      }
    }
  }
}

TEST_F(FaultServingTest, MidQueryFaultInvalidatesThenServesPartial) {
  Fixture fx = MakeFixture("fsv_midquery");
  for (const QueryRequest::Admission admission : kAdmissionModes) {
    SCOPED_TRACE(AdmissionName(admission));
    EngineOptions options = ServingOptions(admission);
    options.degraded_reads = true;
    auto opened = Engine::OpenFromPath(fx.bundle_dir, &fx.rules, options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    Engine& engine = *opened.value().engine;

    // Healthy bundle first: full answers, not partial.
    QueryResponse healthy = SubmitVia(engine, fx.queries[0], admission);
    ASSERT_TRUE(healthy.ok()) << healthy.status.ToString();
    EXPECT_FALSE(healthy.partial);
    EXPECT_EQ(healthy.stats.shards_failed, 0u);

    // Arm one read fault: it lands mid-query (the scatter quarantines
    // shard 2 and restarts), so the fault epoch moves under the running
    // query and Finish refuses to vouch for the answer.
    ScopedFaultPlan plan("shard.read.2=1@1");
    QueryResponse faulted = SubmitVia(engine, fx.queries[1], admission);
    EXPECT_EQ(faulted.status.code(), StatusCode::kIoError)
        << faulted.status.ToString();
    EXPECT_TRUE(faulted.rows.empty());
    EXPECT_FALSE(faulted.partial);
    EXPECT_EQ(faulted.stats.shards_failed, 1u);

    // The retry the IoError asks for: served degraded from the survivors.
    QueryResponse retried = SubmitVia(engine, fx.queries[1], admission);
    ASSERT_TRUE(retried.ok()) << retried.status.ToString();
    EXPECT_TRUE(retried.partial);
    EXPECT_EQ(retried.stats.shards_failed, 1u);
    EXPECT_EQ(retried.stats.shards_total, 4u);
  }
}

TEST_F(FaultServingTest, BlockDecodeFaultSurfacesAsIoErrorOnSingleFile) {
  Fixture fx = MakeFixture("fsv_blockfault");
  const std::string path = FreshDir("fsv_blockfault_single") + "/store.sqps";
  ASSERT_TRUE(SaveStore(fx.store, path).ok());  // single-file v3

  EngineOptions base;
  base.num_threads = 1;
  Engine baseline(&fx.store, &fx.rules, base);
  QueryResponse expected = SubmitImmediate(baseline, fx.queries[0]);
  ASSERT_TRUE(expected.ok());

  for (const QueryRequest::Admission admission : kAdmissionModes) {
    SCOPED_TRACE(AdmissionName(admission));
    auto opened =
        Engine::OpenFromPath(path, &fx.rules, ServingOptions(admission));
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    Engine& engine = *opened.value().engine;

    // Every block decode fails: the scan observes the placeholder block,
    // sees the fault count move, and the response refuses instead of
    // silently serving zero-entry postings.
    {
      ScopedFaultPlan plan("block.decode=1");
      QueryResponse response = SubmitVia(engine, fx.queries[0], admission);
      EXPECT_EQ(response.status.code(), StatusCode::kIoError)
          << response.status.ToString();
      EXPECT_TRUE(response.rows.empty());
      EXPECT_GT(response.stats.store_faults, 0u);
    }

    // The fault was transient and the placeholder was never memoised: the
    // same query re-decodes cleanly and matches an unfaulted baseline.
    QueryResponse recovered = SubmitVia(engine, fx.queries[0], admission);
    ASSERT_TRUE(recovered.ok()) << recovered.status.ToString();
    EXPECT_EQ(recovered.stats.store_faults, 0u);
    ASSERT_EQ(recovered.rows.size(), expected.rows.size());
    for (size_t i = 0; i < expected.rows.size(); ++i) {
      EXPECT_EQ(recovered.rows[i].bindings, expected.rows[i].bindings);
      EXPECT_EQ(recovered.rows[i].score, expected.rows[i].score);
    }
  }
}

TEST_F(FaultServingTest, StoreOpenFaultFailsOneOpenAndProbesOncePerOpen) {
  Fixture fx = MakeFixture("fsv_storeopen");
  const std::string path = FreshDir("fsv_storeopen_single") + "/store.sqps";
  ASSERT_TRUE(SaveStore(fx.store, path).ok());
  EngineOptions base;
  base.num_threads = 1;
  Engine baseline(&fx.store, &fx.rules, base);
  QueryResponse expected = SubmitImmediate(baseline, fx.queries[0]);
  ASSERT_TRUE(expected.ok());

  // Both open paths (mapped, and LoadStore for mmap = false) probe
  // "store.open" exactly once per open, so a one-shot fault fails the
  // first open only.
  for (const bool mmap : {true, false}) {
    ScopedFaultPlan plan("seed=1;store.open=1@1");
    EngineOptions options;
    options.num_threads = 1;
    options.mmap = mmap;
    auto failed = Engine::OpenFromPath(path, &fx.rules, options);
    ASSERT_FALSE(failed.ok()) << "mmap=" << mmap;
    EXPECT_EQ(failed.status().code(), StatusCode::kIoError)
        << failed.status().ToString();
    auto opened = Engine::OpenFromPath(path, &fx.rules, options);
    ASSERT_TRUE(opened.ok()) << "mmap=" << mmap << ": "
                             << opened.status().ToString();
    EXPECT_EQ(FaultInjector::Global().ProbeCount("store.open"), 2u)
        << "mmap=" << mmap;

    QueryResponse got = SubmitImmediate(*opened.value().engine, fx.queries[0]);
    ASSERT_TRUE(got.ok()) << got.status.ToString();
    ASSERT_EQ(got.rows.size(), expected.rows.size()) << "mmap=" << mmap;
    for (size_t i = 0; i < expected.rows.size(); ++i) {
      EXPECT_EQ(got.rows[i].bindings, expected.rows[i].bindings);
      EXPECT_EQ(got.rows[i].score, expected.rows[i].score);
    }
  }
}

// EngineOptions::fault_plan arms the injector once per plan: OpenFromPath
// installs it before the store opens, and neither a later open with the
// same plan nor the Engine constructor re-arms its capped sites or resets
// the counts an open made.
TEST_F(FaultServingTest, EngineFaultPlanIsConfiguredOncePerPlan) {
  Fixture fx = MakeFixture("fsv_engine_plan");
  const std::string path = FreshDir("fsv_engine_plan_single") + "/store.sqps";
  ASSERT_TRUE(SaveStore(fx.store, path).ok());
  EngineOptions options;
  options.num_threads = 1;
  options.fault_plan = "seed=1;store.open=1@1";
  auto failed = Engine::OpenFromPath(path, &fx.rules, options);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kIoError)
      << failed.status().ToString();
  auto opened = Engine::OpenFromPath(path, &fx.rules, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(FaultInjector::Global().ProbeCount("store.open"), 2u);

  // Shard 1 of the bundle fails its first open; quarantine retries it and
  // the bundle opens whole, with the fire still on the books.
  EngineOptions bundle_options;
  bundle_options.num_threads = 1;
  bundle_options.allow_quarantine = true;
  bundle_options.fault_plan = "shard.open.1=1@1";
  auto bundle = Engine::OpenFromPath(fx.bundle_dir, &fx.rules, bundle_options);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  EXPECT_EQ(bundle.value().sharded->ShardsFailed(), 0u);
  EXPECT_EQ(FaultInjector::Global().FireCount("shard.open.1"), 1u);
  EXPECT_GE(FaultInjector::Global().ProbeCount("shard.open.1"), 2u);
}

TEST_F(FaultServingTest, QueueDepthShedsWithRetryAfterHint) {
  Fixture fx = MakeFixture("fsv_shed_queue");
  EngineOptions options;
  options.num_threads = 1;
  options.admission_max_queue = 1;
  options.admission_max_batch = 64;        // window closes only on flush
  options.admission_max_delay_ms = 10000;  // (or this very long delay)
  Engine engine(&fx.store, &fx.rules, options);

  std::future<QueryResponse> accepted =
      engine.Submit(QueryRequest::FromQuery(fx.queries[0]));
  // The queue is now at its cap: the next submit is shed, with the hint.
  QueryResponse shed =
      engine.Submit(QueryRequest::FromQuery(fx.queries[1])).get();
  EXPECT_EQ(shed.status.code(), StatusCode::kResourceExhausted)
      << shed.status.ToString();
  EXPECT_GT(shed.retry_after_ms, 0.0);

  const auto stats = engine.admission().stats();
  EXPECT_EQ(stats.shed_queue_full, 1u);
  EXPECT_EQ(stats.rejected_at_submit, 1u);
  EXPECT_EQ(stats.submitted, 1u);

  // Draining the queue frees the slot: the accepted request completes and
  // a resubmission of the shed one is admitted.
  engine.admission().Flush();
  EXPECT_TRUE(accepted.get().ok());
  std::future<QueryResponse> readmitted =
      engine.Submit(QueryRequest::FromQuery(fx.queries[1]));
  engine.admission().Flush();
  QueryResponse resubmitted = readmitted.get();
  EXPECT_TRUE(resubmitted.ok()) << resubmitted.status.ToString();
}

TEST_F(FaultServingTest, QueueDepthCapHoldsUnderConcurrentSubmitters) {
  // Submitters released together all pass the early (pre-parse) depth
  // check before any of them enqueues; the cap must still hold. The query
  // text carries a megabyte of whitespace, so every parse — the gap
  // between that check and the enqueue — outlasts the latch's wake-up of
  // all the submitters.
  Fixture fx = MakeFixture("fsv_shed_race");
  std::string text = fx.queries[0].ToString(fx.store.dict());
  text.insert(text.find('{') + 1, std::string(size_t{1} << 20, ' '));
  constexpr size_t kCap = 2;
  constexpr size_t kSubmitters = 16;
  for (int round = 0; round < 10; ++round) {
    SCOPED_TRACE(round);
    EngineOptions options;
    options.num_threads = 1;
    options.admission_max_queue = kCap;
    options.admission_max_batch = 64;        // windows stay open until
    options.admission_max_delay_ms = 60000;  // the Flush below
    Engine engine(&fx.store, &fx.rules, options);

    std::vector<std::future<QueryResponse>> futures(kSubmitters);
    std::latch start(kSubmitters);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kSubmitters; ++t) {
      threads.emplace_back([&engine, &futures, &start, &text, t] {
        start.arrive_and_wait();
        futures[t] = engine.Submit(QueryRequest::FromText(text));
      });
    }
    for (std::thread& thread : threads) thread.join();

    const auto stats = engine.admission().stats();
    EXPECT_LE(stats.submitted, kCap);
    EXPECT_EQ(stats.submitted + stats.shed_queue_full, kSubmitters);
    EXPECT_EQ(stats.rejected_at_submit, stats.shed_queue_full);

    engine.admission().Flush();
    size_t answered = 0;
    for (std::future<QueryResponse>& future : futures) {
      const QueryResponse response = future.get();
      if (response.ok()) {
        ++answered;
      } else {
        EXPECT_EQ(response.status.code(), StatusCode::kResourceExhausted)
            << response.status.ToString();
        EXPECT_GT(response.retry_after_ms, 0.0);
      }
    }
    EXPECT_EQ(answered, stats.submitted);
  }
}

TEST_F(FaultServingTest, HopelessDeadlineIsShedAtSubmit) {
  Fixture fx = MakeFixture("fsv_shed_deadline");
  EngineOptions options;
  options.num_threads = 1;
  options.admission_deadline_shed = true;
  options.admission_max_delay_ms = 10000;  // worst-case window delay: 10 s
  Engine engine(&fx.store, &fx.rules, options);

  // A 1 s deadline cannot outlast a 10 s window: shed now, and the hint
  // of 0 says resubmitting the same deadline is pointless.
  QueryRequest request = QueryRequest::FromQuery(fx.queries[0]);
  request.WithTimeout(std::chrono::milliseconds(1000));
  QueryResponse shed = engine.Submit(std::move(request)).get();
  EXPECT_EQ(shed.status.code(), StatusCode::kResourceExhausted)
      << shed.status.ToString();
  EXPECT_EQ(shed.retry_after_ms, 0.0);
  EXPECT_EQ(engine.admission().stats().shed_deadline, 1u);

  // SubmitWithRetry honours the 0 hint: exactly one attempt, no backoff
  // burn.
  QueryRequest again = QueryRequest::FromQuery(fx.queries[1]);
  again.WithTimeout(std::chrono::milliseconds(1000));
  RetryPolicy policy;
  policy.initial_backoff = std::chrono::microseconds(500);
  QueryResponse retried = SubmitWithRetry(engine, again, policy);
  EXPECT_EQ(retried.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(engine.admission().stats().shed_deadline, 2u);
}

TEST_F(FaultServingTest, SubmitWithRetryExhaustsAttemptsOnUnavailable) {
  Fixture fx = MakeFixture("fsv_retry_unavailable");
  EngineOptions options;
  options.num_threads = 1;
  options.allow_quarantine = true;  // strict serving: every query refused
  options.fault_plan = "shard.open.1=1";
  options.admission_max_batch = 1;  // dispatch each attempt promptly
  auto opened = Engine::OpenFromPath(fx.bundle_dir, &fx.rules, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  FaultInjector::Global().Disarm();
  Engine& engine = *opened.value().engine;

  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff = std::chrono::microseconds(500);
  policy.max_backoff = std::chrono::microseconds(2000);
  QueryResponse response =
      SubmitWithRetry(engine, QueryRequest::FromQuery(fx.queries[0]), policy);
  EXPECT_EQ(response.status.code(), StatusCode::kUnavailable)
      << response.status.ToString();
  // All three attempts were admitted and refused at dispatch.
  EXPECT_EQ(engine.admission().stats().submitted, 3u);
}

TEST_F(FaultServingTest, CancelAbortsShardedExecutionPromptly) {
  // Large enough that a cold scatter-gather execution takes real time;
  // the regression bound is on cancel-to-completion latency, not on the
  // query finishing.
  Fixture fx = MakeFixture("fsv_cancel", /*triples=*/60000);
  EngineOptions options;
  options.num_threads = 1;
  options.degraded_reads = true;
  auto opened = Engine::OpenFromPath(fx.bundle_dir, &fx.rules, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();

#if defined(SPECQP_SANITIZED_BUILD)
  constexpr double kBoundMs = 500.0;  // sanitizers run 5-15x slower
#else
  constexpr double kBoundMs = 50.0;
#endif

  CancellationToken token = CancellationToken::Create();
  QueryRequest request = QueryRequest::FromQuery(fx.queries[0]);
  request.cancel = token;
  request.admission = QueryRequest::Admission::kImmediate;

  std::promise<void> started;
  QueryResponse response;
  std::thread worker([&] {
    started.set_value();
    response = opened.value().engine->Submit(std::move(request)).get();
  });
  started.get_future().wait();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const auto cancel_at = std::chrono::steady_clock::now();
  token.RequestCancel();
  worker.join();
  const double after_cancel_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - cancel_at)
          .count();

  // Either the query beat the cancel (ok) or it was cancelled — but in
  // both cases the response must land promptly after the cancel.
  EXPECT_LT(after_cancel_ms, kBoundMs);
  if (!response.ok()) {
    EXPECT_EQ(response.status.code(), StatusCode::kCancelled)
        << response.status.ToString();
    EXPECT_TRUE(response.rows.empty());
  }
}

}  // namespace
}  // namespace specqp
