// Speculative plan racing (core/speculation.h): a forced race where the
// deliberately mis-estimated primary loses to the runner-up, the loser's
// <50 ms cancellation bound, winner-only (never double-counted) ExecStats,
// mid-query re-plan bit-identity, the calibration-log round trip through
// scripts/fit_estimator_correction.py, and the full 116-query probe
// asserting bit-identical answers with speculation forced on across all
// three strategies and 1/2/8 threads. Re-planning and the probe run on
// both admission paths: a window of one distinct query races and re-plans
// as an immediate request does.

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/request.h"
#include "datasets/twitter_generator.h"
#include "datasets/workload.h"
#include "datasets/xkg_generator.h"
#include "rdf/store_format.h"
#include "stats/calibration.h"
#include "test_util.h"
#include "util/string_util.h"

// Sanitizer builds run ~5-15x slower; relax wall-clock assertions and trim
// the probe sweep there so the TSan/ASan gates stay fast while the release
// gate enforces the real latency bar.
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

void ExpectSameRows(const std::vector<ScoredRow>& expected,
                    const std::vector<ScoredRow>& actual,
                    const std::string& label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].bindings, expected[i].bindings) << label << " #" << i;
    EXPECT_EQ(actual[i].score, expected[i].score) << label << " #" << i;
  }
}

// The bench's adversarial race shape (bench/micro_operators.cc RaceFixture)
// at test scale, with *distinct* answer scores so the top-k is unique and
// bit-identity is well defined even when the runner-up's emission order
// for ties would differ from the primary's.
//
// One 3-pattern star ?s p A . ?s p B . ?s p C over:
//   - kAnswers subjects matching A, B, C, and R at raw score 1000 - i
//     (normalised 1.0 down to 0.989; answer i scores 3 * (1000 - i)/1000,
//     all above the runner-up's certificate bound of (3-1) + 0.8 = 2.8);
//   - a kFillers-entry C-only tail descending 900 -> 890 (normalised
//     0.9 -> 0.89, clearly below the answer band): {A,B,C} folds
//     A |><| B, both sides exhaust after kAnswers rows, and the first
//     filler pull drops the corner bound to 2.0 + 0.9 < the k-th
//     answer's 2.973 — the top-k releases after ~kAnswers C pulls,
//     microseconds. The relaxed {B,C | A*} folds B |><| C first; the
//     outer join always prefers the inner's dominant upper bound
//     (1 + ub_C > the A* merge's 1.0), and after the kAnswers matches
//     the inner's Next() drains C's entire tail hunting for a
//     nonexistent further match — milliseconds. The tail is long enough
//     (about 15-30 ms to drain on a 4-core x86-64 host) that the racer
//     thread starting the runner-up outruns it even on a loaded machine;
//     at a few ms a delayed pool worker let the primary win;
//   - kRelaxJunk R-only subjects at raw 995, so relaxing A -> R (weight
//     0.8) looks juicy to the estimator and R stays non-empty (the
//     certificate bound is live, not the unconditional < 0 case).
//
// `poison` (preload before the first plan) claims A's matches are junk
// averaging ~0.1: E_Q(k) collapses, the planner wrongly relaxes the
// genuinely perfect A, the primary becomes the slow relaxed plan, and the
// runner-up — the correct {A,B,C} — must win the race on merit.
struct SpecFixture {
  static constexpr size_t kAnswers = 12;
  static constexpr size_t kFillers = 120000;
  static constexpr size_t kRelaxJunk = 3000;

  TripleStore store;
  RelaxationIndex rules;
  Query query;
  PatternKey key_a, key_c;
  std::vector<v3::StatsEntry> poison_a;  // planner wrongly relaxes A
  std::vector<v3::StatsEntry> poison_c;  // C's cardinality claimed tiny

  SpecFixture() {
    Dictionary& dict = store.dict();
    const TermId p = dict.Intern("rp");
    const TermId obj_a = dict.Intern("raceA");
    const TermId obj_b = dict.Intern("raceB");
    const TermId obj_c = dict.Intern("raceC");
    const TermId obj_r = dict.Intern("raceR");
    for (size_t i = 0; i < kAnswers; ++i) {
      const TermId m = dict.Intern("m" + std::to_string(i));
      const double score = 1000.0 - static_cast<double>(i);
      store.AddEncoded(m, p, obj_a, score);
      store.AddEncoded(m, p, obj_b, score);
      store.AddEncoded(m, p, obj_c, score);
      store.AddEncoded(m, p, obj_r, score);
    }
    for (size_t j = 0; j < kFillers; ++j) {
      const TermId f = dict.Intern("cf" + std::to_string(j));
      const double score = 900.0 - 10.0 * static_cast<double>(j) /
                                       static_cast<double>(kFillers - 1);
      store.AddEncoded(f, p, obj_c, score);
    }
    for (size_t j = 0; j < kRelaxJunk; ++j) {
      store.AddEncoded(dict.Intern("rf" + std::to_string(j)), p, obj_r,
                       995.0);
    }
    store.Finalize();

    RelaxationRule rule;
    rule.from = PatternKey{kInvalidTermId, p, obj_a};
    rule.to = PatternKey{kInvalidTermId, p, obj_r};
    rule.weight = 0.8;
    SPECQP_CHECK(rules.AddRule(rule).ok());

    const VarId s = query.GetOrAddVariable("s");
    query.AddPattern(TriplePattern(PatternTerm::Var(s), PatternTerm::Const(p),
                                   PatternTerm::Const(obj_a)));
    query.AddPattern(TriplePattern(PatternTerm::Var(s), PatternTerm::Const(p),
                                   PatternTerm::Const(obj_b)));
    query.AddPattern(TriplePattern(PatternTerm::Var(s), PatternTerm::Const(p),
                                   PatternTerm::Const(obj_c)));
    query.AddProjection(s);

    key_a = PatternKey{kInvalidTermId, p, obj_a};
    key_c = PatternKey{kInvalidTermId, p, obj_c};
    // avg score ~0.1 with the catalog's 80/20 mass split (s_r = 0.8 s_m).
    poison_a.push_back(
        v3::StatsEntry{kInvalidTermId, p, obj_a, 0, kAnswers, 0.1, 0.96, 1.2});
    // Honest shape but m claimed equal to the answer count: the C leaf
    // emits ~2500x its estimate, so any divergence factor trips.
    poison_c.push_back(
        v3::StatsEntry{kInvalidTermId, p, obj_c, 0, kAnswers, 1.0, 9.6, 12.0});
  }

  QueryResponse Run(Engine& engine, size_t k = 10,
                    QueryRequest::Admission admission =
                        QueryRequest::Admission::kImmediate) const;
};

// Submits `query` on the given admission path and CHECKs the status.
QueryResponse SubmitVia(Engine& engine, const Query& query, size_t k,
                        Strategy strategy,
                        QueryRequest::Admission admission) {
  QueryRequest request = QueryRequest::FromQuery(query, k, strategy);
  request.admission = admission;
  QueryResponse response = engine.Submit(std::move(request)).get();
  SPECQP_CHECK(response.status.ok()) << response.status.ToString();
  return response;
}

QueryResponse SpecFixture::Run(Engine& engine, size_t k,
                               QueryRequest::Admission admission) const {
  // The paper's warm-cache setting — and a fairness requirement here: a
  // race must be decided by plan quality, not by which racer happens to
  // pay the one-off posting-list build for the shared store.
  engine.Warm(query);
  return SubmitVia(engine, query, k, Strategy::kSpecQp, admission);
}

SpecFixture& Fix() {
  static auto* fx = new SpecFixture();
  return *fx;
}

EngineOptions BaseOptions() {
  EngineOptions options;
  options.num_threads = 1;
  return options;
}

// Both admission paths; a windowed request dispatches alone (a window of
// one), so every window holds one distinct query.
constexpr QueryRequest::Admission kAdmissionModes[] = {
    QueryRequest::Admission::kImmediate, QueryRequest::Admission::kWindow};

EngineOptions ModeOptions(QueryRequest::Admission admission) {
  EngineOptions options = BaseOptions();
  if (admission == QueryRequest::Admission::kWindow) {
    options.admission_max_batch = 1;
  }
  return options;
}

const char* AdmissionName(QueryRequest::Admission admission) {
  return admission == QueryRequest::Admission::kWindow ? "window"
                                                       : "immediate";
}

// --- plan racing -----------------------------------------------------------

TEST(SpeculativeExecutionTest, ForcedRaceRunnerUpMustWin) {
  SpecFixture& fx = Fix();

  // Reference: speculation off, no poison — the honest planner keeps
  // {A,B,C} and this is the ground-truth top-k.
  EngineOptions plain = BaseOptions();
  Engine reference(&fx.store, &fx.rules, plain);
  const QueryResponse expected = fx.Run(reference);
  ASSERT_EQ(expected.rows.size(), 10u);
  EXPECT_EQ(expected.stats.plans_raced, 0u);

  // Poisoned stats + forced speculation: the primary is the slow relaxed
  // plan, the runner-up the correct join — and it must win the race.
  EngineOptions racing = BaseOptions();
  racing.num_threads = 2;
  racing.speculate_threshold = 2.0;  // confidence is in [0,1]: always race
  Engine engine(&fx.store, &fx.rules, racing);
  engine.catalog().Preload(fx.poison_a);
  const QueryResponse result = fx.Run(engine);

  EXPECT_EQ(result.stats.plans_raced, 2u);
  EXPECT_EQ(result.stats.race_wins_by_runnerup, 1u)
      << "the mis-estimated primary should lose to the runner-up";
  ASSERT_TRUE(result.diagnostics.has_runner_up);
  EXPECT_LT(result.diagnostics.plan_confidence, 2.0);
  ExpectSameRows(expected.rows, result.rows, "runner-up win");
}

TEST(SpeculativeExecutionTest, RaceNeedsPoolAndThreshold) {
  SpecFixture& fx = Fix();

  // Serial engine: speculation configured but no pool to race on.
  EngineOptions serial = BaseOptions();
  serial.speculate_threshold = 2.0;
  Engine engine_serial(&fx.store, &fx.rules, serial);
  engine_serial.catalog().Preload(fx.poison_a);
  EXPECT_EQ(fx.Run(engine_serial).stats.plans_raced, 0u);

  // Threshold 0 (default): racing disabled even with a pool.
  EngineOptions off = BaseOptions();
  off.num_threads = 2;
  Engine engine_off(&fx.store, &fx.rules, off);
  engine_off.catalog().Preload(fx.poison_a);
  EXPECT_EQ(fx.Run(engine_off).stats.plans_raced, 0u);
}

// Load-tolerant bound, always on. The loser polls its interrupt per row,
// so the claim-to-wind-down latency is mechanically small; under a loaded
// runner (ctest -j8 sharing cores with seven other suites) the losing
// thread may simply not be scheduled for tens of milliseconds, which is
// scheduler noise, not a cancellation regression. 500 ms still catches the
// real failure mode (a loser that drains its inputs instead of aborting
// runs for seconds on the poisoned plan).
TEST(SpeculativeExecutionTest, LoserCancellationLatencyBound) {
  constexpr double kAbortBudgetMs = 500.0;
  SpecFixture& fx = Fix();
  EngineOptions racing = BaseOptions();
  racing.num_threads = 2;
  racing.speculate_threshold = 2.0;
  Engine engine(&fx.store, &fx.rules, racing);
  engine.catalog().Preload(fx.poison_a);

  for (int rep = 0; rep < 5; ++rep) {
    const QueryResponse result = fx.Run(engine);
    ASSERT_EQ(result.stats.plans_raced, 2u);
    EXPECT_LT(result.stats.race_loser_abort_ms, kAbortBudgetMs)
        << "rep " << rep;
  }
}

// Strict <50 ms variant of the bound above (the PR 5 abort guarantee),
// gated on SPECQP_STRICT_TIMING because it needs an unloaded machine:
// run it standalone via
//   SPECQP_STRICT_TIMING=1 ./core_speculative_execution_test
//     (--gtest_filter='*LoserCancellationLatencyBoundStrict*')
TEST(SpeculativeExecutionTest, LoserCancellationLatencyBoundStrict) {
  if (std::getenv("SPECQP_STRICT_TIMING") == nullptr) {
    GTEST_SKIP() << "set SPECQP_STRICT_TIMING=1 on an unloaded machine to "
                    "enforce the strict 50 ms abort bound";
  }
#if defined(SPECQP_SANITIZED_BUILD)
  constexpr double kAbortBudgetMs = 500.0;
#else
  constexpr double kAbortBudgetMs = 50.0;
#endif
  SpecFixture& fx = Fix();
  EngineOptions racing = BaseOptions();
  racing.num_threads = 2;
  racing.speculate_threshold = 2.0;
  Engine engine(&fx.store, &fx.rules, racing);
  engine.catalog().Preload(fx.poison_a);

  for (int rep = 0; rep < 5; ++rep) {
    const QueryResponse result = fx.Run(engine);
    ASSERT_EQ(result.stats.plans_raced, 2u);
    // The loser polls its interrupt per row; from the winner's claim to the
    // loser's wind-down must stay inside the abort budget.
    EXPECT_LT(result.stats.race_loser_abort_ms, kAbortBudgetMs)
        << "rep " << rep;
  }
}

TEST(SpeculativeExecutionTest, RacedStatsAreWinnerOnlyPlusLedger) {
  SpecFixture& fx = Fix();

  // Speculation off over the poisoned stats: the slow relaxed plan runs to
  // completion and its full drain shows up in the operator counters.
  EngineOptions off = BaseOptions();
  Engine engine_off(&fx.store, &fx.rules, off);
  engine_off.catalog().Preload(fx.poison_a);
  const QueryResponse slow = fx.Run(engine_off);

  EngineOptions racing = BaseOptions();
  racing.num_threads = 2;
  racing.speculate_threshold = 2.0;
  Engine engine_on(&fx.store, &fx.rules, racing);
  engine_on.catalog().Preload(fx.poison_a);
  const QueryResponse raced = fx.Run(engine_on);
  ASSERT_EQ(raced.stats.race_wins_by_runnerup, 1u);

  // Winner-only folding: the raced result's operator counters reflect the
  // fast winner, not winner + loser. The loser's materialised-but-discarded
  // answers land in the wasted-work ledger instead.
  EXPECT_LT(raced.stats.scan_rows, slow.stats.scan_rows)
      << "raced stats must not absorb the slow loser's scan work";
  EXPECT_EQ(raced.stats.plans_raced, 2u);
  EXPECT_EQ(raced.stats.replans_triggered, 0u);
  ExpectSameRows(slow.rows, raced.rows, "raced vs slow-plan rows");
}

// --- mid-query re-planning -------------------------------------------------

TEST(SpeculativeExecutionTest, ReplanRestartIsBitIdentical) {
  SpecFixture& fx = Fix();
  for (const QueryRequest::Admission admission : kAdmissionModes) {
    SCOPED_TRACE(AdmissionName(admission));
    // No adaptivity: the poisoned slow plan runs straight through.
    EngineOptions plain = ModeOptions(admission);
    Engine engine_plain(&fx.store, &fx.rules, plain);
    engine_plain.catalog().Preload(fx.poison_a);
    engine_plain.catalog().Preload(fx.poison_c);
    const QueryResponse expected = fx.Run(engine_plain, 10, admission);
    EXPECT_EQ(expected.stats.replans_triggered, 0u);

    // Adaptive: C's cardinality is claimed ~2500x low, so the divergence
    // checkpoint fires mid-drain, the execution re-plans on warm memos,
    // and the restarted run must return the identical top-k.
    EngineOptions adaptive = ModeOptions(admission);
    adaptive.replan_divergence_factor = 2.0;
    adaptive.replan_check_rows = 64;
    Engine engine_adaptive(&fx.store, &fx.rules, adaptive);
    engine_adaptive.catalog().Preload(fx.poison_a);
    engine_adaptive.catalog().Preload(fx.poison_c);
    const QueryResponse replanned = fx.Run(engine_adaptive, 10, admission);

    EXPECT_EQ(replanned.stats.replans_triggered, 1u);
    ExpectSameRows(expected.rows, replanned.rows, "replan restart");
  }
}

// --- calibration loop ------------------------------------------------------

TEST(SpeculativeExecutionTest, CalibrationRoundTripThroughFitScript) {
  if (std::system("python3 -c 'pass' >/dev/null 2>&1") != 0) {
    GTEST_SKIP() << "python3 unavailable";
  }
  SpecFixture& fx = Fix();

  // Run with C's match count claimed 2500x low; the calibration log then
  // holds (estimated_m=12, actual_m=30012) observations for class ?|rp|#.
  EngineOptions options = BaseOptions();
  Engine engine(&fx.store, &fx.rules, options);
  engine.catalog().Preload(fx.poison_c);
  (void)fx.Run(engine);
  const std::vector<CalibrationPatternRecord> records =
      engine.calibration_log().PatternRecords();
  ASSERT_FALSE(records.empty());

  // Dump the log the way a bench artifact would.
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string dir = ::testing::TempDir();
  const std::string artifact =
      dir + "/" + info->name() + "_calibration.json";
  const std::string table = dir + "/" + info->name() + "_table.tsv";
  {
    std::ofstream out(artifact);
    ASSERT_TRUE(out.good());
    out << "{\"calibration\":{\"patterns\":[";
    for (size_t i = 0; i < records.size(); ++i) {
      if (i > 0) out << ",";
      out << "{\"signature\":\"" << records[i].signature
          << "\",\"estimated_m\":" << records[i].estimated_m
          << ",\"actual_m\":" << records[i].actual_m << "}";
    }
    out << "]}}";
  }

  // tests/core_speculative_execution_test.cc -> <repo>/scripts/.
  std::string tests_dir = __FILE__;
  tests_dir = tests_dir.substr(0, tests_dir.find_last_of('/'));
  const std::string script =
      tests_dir + "/../scripts/fit_estimator_correction.py";
  const std::string command = "python3 '" + script + "' '" + artifact +
                              "' --out '" + table + "' 2>/dev/null";
  ASSERT_EQ(std::system(command.c_str()), 0) << command;

  // A fresh engine opened with the fitted table estimates differently: the
  // ?|rp|# class carries a strong up-correction (clamped at the loader's
  // 100x bound), so the same preloaded claim of m=12 now reads as 1200.
  EngineOptions corrected_options = BaseOptions();
  corrected_options.calibration_path = table;
  Engine corrected(&fx.store, &fx.rules, corrected_options);
  EXPECT_GT(corrected.catalog().CorrectionFor(fx.key_c), 1.0);
  corrected.catalog().Preload(fx.poison_c);
  EXPECT_GT(corrected.catalog().GetStats(fx.key_c).m, SpecFixture::kAnswers);

  // Missing table: no corrections, not an error.
  EngineOptions missing = BaseOptions();
  missing.calibration_path = dir + "/does_not_exist.tsv";
  Engine uncorrected(&fx.store, &fx.rules, missing);
  EXPECT_EQ(uncorrected.catalog().CorrectionFor(fx.key_c), 1.0);
}

// --- the 116-query probe ---------------------------------------------------

// Speculation forced on (threshold 2.0 > any confidence) plus adaptive
// re-planning, across all three strategies, 1/2/8 threads and both
// admission paths: answers must be bit-identical to the serial
// speculation-off baseline for every bundled workload query. This is the
// paper-scale guarantee that racing is a pure latency optimisation.
TEST(SpeculativeExecutionTest, ProbeBitIdenticalWithSpeculationForcedOn) {
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

  struct Bundle {
    const char* name;
    const TripleStore* store;
    const RelaxationIndex* rules;
    const std::vector<Query>* workload;
  } bundles[] = {
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

  for (const Bundle& bundle : bundles) {
    for (const Strategy strategy : kStrategies) {
      EngineOptions base = BaseOptions();
      Engine baseline(bundle.store, bundle.rules, base);
      std::vector<std::vector<ScoredRow>> expected;
      expected.reserve(bundle.workload->size());
      for (const Query& query : *bundle.workload) {
        expected.push_back(
            testing::Execute(baseline, query, 10, strategy).rows);
      }

      for (const QueryRequest::Admission admission : kAdmissionModes) {
        for (const int threads : thread_counts) {
          EngineOptions options = ModeOptions(admission);
          options.num_threads = threads;
          options.speculate_threshold = 2.0;
          options.replan_divergence_factor = 8.0;
          Engine engine(bundle.store, bundle.rules, options);
          uint64_t raced = 0;
          for (size_t q = 0; q < bundle.workload->size(); ++q) {
            const QueryResponse result = SubmitVia(
                engine, (*bundle.workload)[q], 10, strategy, admission);
            raced += result.stats.plans_raced;
            ExpectSameRows(
                expected[q], result.rows,
                StrFormat("%s/%s q%zu threads=%d %s", bundle.name,
                          std::string(StrategyName(strategy)).c_str(), q,
                          threads, AdmissionName(admission)));
          }
          if (strategy == Strategy::kSpecQp && threads >= 2) {
            EXPECT_GT(raced, 0u)
                << bundle.name << " threads=" << threads << " "
                << AdmissionName(admission)
                << ": forced speculation should race at least one query";
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace specqp
