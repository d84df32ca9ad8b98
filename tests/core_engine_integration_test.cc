#include "core/engine.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "core/exhaustive.h"
#include "test_util.h"

namespace specqp {
namespace {

using specqp::testing::MakeMusicFixture;
using specqp::testing::MusicFixture;

TEST(EngineTest, ExecuteTextEndToEnd) {
  MusicFixture fx = MakeMusicFixture();
  Engine engine(&fx.store, &fx.rules);
  const auto result = testing::ExecuteText(
      engine,
      "SELECT ?s WHERE { ?s <rdf:type> <singer> . ?s <rdf:type> <vocalist> }",
      3, Strategy::kTrinit);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().rows.size(), 3u);
  // shakira (1.0 + 1.0) tops the list.
  EXPECT_EQ(result.value().rows[0].bindings[0], fx.Id("shakira"));
  EXPECT_NEAR(result.value().rows[0].score, 2.0, 1e-9);
}

TEST(EngineTest, ExecuteTextParseErrorPropagates) {
  MusicFixture fx = MakeMusicFixture();
  Engine engine(&fx.store, &fx.rules);
  const auto result =
      testing::ExecuteText(engine, "SELECT ?s WHERE { ?s <rdf:type> <dragon> }", 3,
                         Strategy::kTrinit);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineTest, StrategiesShareCaches) {
  MusicFixture fx = MakeMusicFixture();
  Engine engine(&fx.store, &fx.rules);
  const Query query = fx.TypeQuery({"singer", "lyricist"});
  (void)testing::Execute(engine, query, 5, Strategy::kTrinit);
  const size_t after_first = engine.postings().size();
  (void)testing::Execute(engine, query, 5, Strategy::kSpecQp);
  // Spec-QP needed no posting lists beyond what TriniT already built.
  EXPECT_EQ(engine.postings().size(), after_first);
}

TEST(EngineTest, WarmPreloadsPostingsAndStats) {
  MusicFixture fx = MakeMusicFixture();
  Engine engine(&fx.store, &fx.rules);
  const Query query = fx.TypeQuery({"singer", "lyricist"});
  engine.Warm(query);
  const uint64_t misses_after_warm = engine.postings().misses();
  (void)testing::Execute(engine, query, 5, Strategy::kTrinit);
  EXPECT_EQ(engine.postings().misses(), misses_after_warm);
}

TEST(EngineTest, SpecQpRowsAreSortedAndBounded) {
  MusicFixture fx = MakeMusicFixture();
  Engine engine(&fx.store, &fx.rules);
  const Query query =
      fx.TypeQuery({"singer", "lyricist", "guitarist", "pianist"});
  const auto result = testing::Execute(engine, query, 10, Strategy::kSpecQp);
  EXPECT_LE(result.rows.size(), 10u);
  double prev = 1e9;
  for (const ScoredRow& row : result.rows) {
    EXPECT_LE(row.score, prev + 1e-9);
    prev = row.score;
  }
}

TEST(EngineTest, SpecQpNeverUsesMoreObjectsThanTrinit) {
  MusicFixture fx = MakeMusicFixture();
  Engine engine(&fx.store, &fx.rules);
  for (const auto& names : std::vector<std::vector<std::string>>{
           {"singer", "vocalist"},
           {"singer", "lyricist", "guitarist"},
           {"singer", "lyricist", "guitarist", "pianist"}}) {
    const Query query = fx.TypeQuery(names);
    const auto trinit = testing::Execute(engine, query, 10, Strategy::kTrinit);
    const auto spec = testing::Execute(engine, query, 10, Strategy::kSpecQp);
    EXPECT_LE(spec.stats.answer_objects, trinit.stats.answer_objects);
  }
}

TEST(EngineTest, PlanOnlyMatchesExecutePlan) {
  MusicFixture fx = MakeMusicFixture();
  Engine engine(&fx.store, &fx.rules);
  const Query query = fx.TypeQuery({"singer", "pianist"});
  const QueryResponse planned =
      engine.Explain(QueryRequest::FromQuery(query, 10));
  ASSERT_TRUE(planned.ok()) << planned.status.ToString();
  const auto executed = testing::Execute(engine, query, 10, Strategy::kSpecQp);
  EXPECT_EQ(planned.plan.singletons, executed.plan.singletons);
  EXPECT_EQ(planned.plan.join_group, executed.plan.join_group);
}

TEST(EngineTest, StrategyNames) {
  EXPECT_EQ(StrategyName(Strategy::kSpecQp), "Spec-QP");
  EXPECT_EQ(StrategyName(Strategy::kTrinit), "TriniT");
  EXPECT_EQ(StrategyName(Strategy::kNoRelax), "NoRelax");
}

TEST(EngineDeathTest, RequiresFinalizedStore) {
  TripleStore store;
  RelaxationIndex rules;
  EXPECT_DEATH(Engine(&store, &rules), "finalized");
}

// --- system-level properties over random data --------------------------------

class EnginePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(EnginePropertyTest, TrinitEqualsOracleAndSpecQpEqualsItsPlan) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 3313 + 29);
  specqp::testing::RandomStoreConfig cfg;
  cfg.num_subjects = 30;
  cfg.num_predicates = 3;
  cfg.num_objects = 10;
  cfg.num_triples = 220;
  TripleStore store = specqp::testing::MakeRandomStore(&rng, cfg);
  RelaxationIndex rules = specqp::testing::MakeRandomRules(&rng, store, 3);
  Engine engine(&store, &rules);
  ExhaustiveEvaluator oracle(&store, &rules);

  for (int trial = 0; trial < 5; ++trial) {
    const size_t num_patterns = 2 + rng.NextBounded(2);
    const Query query =
        specqp::testing::MakeRandomStarQuery(&rng, store, num_patterns);
    const size_t k = 1 + rng.NextBounded(10);

    // (1) TriniT returns the true top-k.
    const auto trinit = testing::Execute(engine, query, k, Strategy::kTrinit);
    const auto truth = oracle.Evaluate(query);
    const size_t expect = std::min(k, truth.answers.size());
    ASSERT_EQ(trinit.rows.size(), expect);
    for (size_t i = 0; i < expect; ++i) {
      EXPECT_NEAR(trinit.rows[i].score, truth.answers[i].score, 1e-9);
    }

    // (2) Spec-QP is exact with respect to its own plan: its output equals
    // the oracle over the rule set restricted to the plan's singletons.
    const auto spec = testing::Execute(engine, query, k, Strategy::kSpecQp);
    RelaxationIndex filtered;
    bool well_defined = true;
    for (size_t i : spec.plan.singletons) {
      for (size_t j = 0; j < query.num_patterns(); ++j) {
        if (j != i && query.pattern(j).Key() == query.pattern(i).Key()) {
          well_defined = false;  // duplicate pattern keys: skip the check
        }
      }
      for (const RelaxationRule& rule :
           rules.RulesFor(query.pattern(i).Key())) {
        ASSERT_TRUE(filtered.AddRule(rule).ok());
      }
    }
    if (!well_defined) continue;
    ExhaustiveEvaluator plan_oracle(&store, &filtered);
    const auto plan_truth = plan_oracle.Evaluate(query);
    const size_t plan_expect = std::min(k, plan_truth.answers.size());
    ASSERT_EQ(spec.rows.size(), plan_expect);
    for (size_t i = 0; i < plan_expect; ++i) {
      EXPECT_NEAR(spec.rows[i].score, plan_truth.answers[i].score, 1e-9);
    }

    // (3) Every Spec-QP answer is a genuine answer whose score never
    // exceeds the oracle's score for the same binding.
    for (const ScoredRow& row : spec.rows) {
      bool found = false;
      for (const auto& answer : truth.answers) {
        if (answer.bindings == row.bindings) {
          EXPECT_LE(row.score, answer.score + 1e-9);
          found = true;
          break;
        }
      }
      EXPECT_TRUE(found) << "Spec-QP emitted a non-answer";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnginePropertyTest, ::testing::Range(0, 10));

}  // namespace
}  // namespace specqp
