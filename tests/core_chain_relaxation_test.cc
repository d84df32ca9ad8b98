#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/exhaustive.h"
#include "datasets/xkg_generator.h"
#include "relax/miner.h"
#include "relax/relaxation.h"
#include "test_util.h"
#include "topk/project.h"

namespace specqp {
namespace {

using specqp::testing::Drain;
using specqp::testing::Row1;
using specqp::testing::VectorIterator;

// Fixture: people play instruments; instruments are related to each other.
// The chain rule relaxes "plays guitar" into "plays something related to
// guitar".
struct ChainFixture {
  TripleStore store;
  RelaxationIndex rules;
  TermId plays = kInvalidTermId;
  TermId related = kInvalidTermId;
  TermId guitar = kInvalidTermId;

  Query PlaysQuery(const char* instrument) const {
    Query q;
    const VarId s = q.GetOrAddVariable("s");
    q.AddPattern(TriplePattern(PatternTerm::Var(s), PatternTerm::Const(plays),
                               PatternTerm::Const(store.MustId(instrument))));
    q.AddProjection(s);
    return q;
  }
};

ChainFixture MakeChainFixture() {
  ChainFixture fx;
  TripleStore& store = fx.store;
  // plays: scores are player popularity.
  store.Add("ana", "plays", "guitar", 100.0);
  store.Add("ben", "plays", "bass", 90.0);
  store.Add("cem", "plays", "ukulele", 80.0);
  store.Add("dia", "plays", "piano", 70.0);
  store.Add("eli", "plays", "bass", 60.0);
  // instrument relatedness (z related-to guitar).
  store.Add("bass", "relatedTo", "guitar", 1.0);
  store.Add("ukulele", "relatedTo", "guitar", 1.0);
  store.Add("organ", "relatedTo", "piano", 1.0);
  store.Finalize();

  fx.plays = store.MustId("plays");
  fx.related = store.MustId("relatedTo");
  fx.guitar = store.MustId("guitar");

  ChainRelaxationRule rule;
  rule.from = PatternKey{kInvalidTermId, fx.plays, fx.guitar};
  rule.hop1_predicate = fx.plays;
  rule.hop2_predicate = fx.related;
  rule.hop2_object = fx.guitar;
  rule.weight = 0.8;
  SPECQP_CHECK(fx.rules.AddChainRule(rule).ok());
  return fx;
}

// --- rule validation ----------------------------------------------------------

TEST(ChainRuleTest, ValidRulePasses) {
  ChainRelaxationRule rule;
  rule.from = PatternKey{kInvalidTermId, 1, 2};
  rule.hop1_predicate = 1;
  rule.hop2_predicate = 3;
  rule.hop2_object = 2;
  rule.weight = 0.5;
  EXPECT_TRUE(ValidateChainRule(rule).ok());
}

TEST(ChainRuleTest, RejectsBadShapes) {
  ChainRelaxationRule rule;
  rule.from = PatternKey{7, 1, 2};  // subject bound: invalid domain
  rule.hop1_predicate = 1;
  rule.hop2_predicate = 3;
  rule.hop2_object = 2;
  rule.weight = 0.5;
  EXPECT_FALSE(ValidateChainRule(rule).ok());

  rule.from = PatternKey{kInvalidTermId, 1, 2};
  rule.weight = 0.0;
  EXPECT_FALSE(ValidateChainRule(rule).ok());
  rule.weight = 1.5;
  EXPECT_FALSE(ValidateChainRule(rule).ok());

  rule.weight = 0.5;
  rule.hop2_object = kInvalidTermId;
  EXPECT_FALSE(ValidateChainRule(rule).ok());
}

TEST(ChainRuleTest, ApplyProducesHopPatterns) {
  ChainRelaxationRule rule;
  rule.from = PatternKey{kInvalidTermId, 1, 2};
  rule.hop1_predicate = 1;
  rule.hop2_predicate = 3;
  rule.hop2_object = 2;
  rule.weight = 0.5;
  const TriplePattern pattern(PatternTerm::Var(0), PatternTerm::Const(1),
                              PatternTerm::Const(2));
  auto chain = ApplyChainRule(pattern, rule, /*fresh_var=*/5);
  ASSERT_TRUE(chain.ok());
  EXPECT_EQ(chain->hop1.s.var(), 0u);
  EXPECT_EQ(chain->hop1.p.term(), 1u);
  EXPECT_EQ(chain->hop1.o.var(), 5u);
  EXPECT_EQ(chain->hop2.s.var(), 5u);
  EXPECT_EQ(chain->hop2.p.term(), 3u);
  EXPECT_EQ(chain->hop2.o.term(), 2u);
}

TEST(ChainRuleTest, IndexStoresAndSorts) {
  RelaxationIndex index;
  auto make = [](TermId o, TermId hop2_o, double w) {
    ChainRelaxationRule rule;
    rule.from = PatternKey{kInvalidTermId, 1, o};
    rule.hop1_predicate = 1;
    rule.hop2_predicate = 3;
    rule.hop2_object = hop2_o;
    rule.weight = w;
    return rule;
  };
  ASSERT_TRUE(index.AddChainRule(make(2, 2, 0.4)).ok());
  ASSERT_TRUE(index.AddChainRule(make(2, 9, 0.7)).ok());
  EXPECT_EQ(index.total_chain_rules(), 2u);
  const auto rules = index.ChainRulesFor(PatternKey{kInvalidTermId, 1, 2});
  ASSERT_EQ(rules.size(), 2u);
  EXPECT_DOUBLE_EQ(rules[0].weight, 0.7);
  const auto* top = index.TopChainRule(PatternKey{kInvalidTermId, 1, 2});
  ASSERT_NE(top, nullptr);
  EXPECT_DOUBLE_EQ(top->weight, 0.7);
  // Duplicate hops keep the max weight.
  ASSERT_TRUE(index.AddChainRule(make(2, 9, 0.2)).ok());
  EXPECT_EQ(index.total_chain_rules(), 2u);
}

// --- project operator ----------------------------------------------------------

TEST(ProjectIteratorTest, ClearsRequestedSlots) {
  std::vector<ScoredRow> rows;
  ScoredRow row(3, 0.9);
  row.bindings[0] = 7;
  row.bindings[2] = 9;
  rows.push_back(row);
  auto input = std::make_unique<VectorIterator>(rows);
  ProjectIterator project(std::move(input), {2});
  ScoredRow out;
  ASSERT_TRUE(project.Next(&out));
  EXPECT_EQ(out.bindings[0], 7u);
  EXPECT_EQ(out.bindings[2], kInvalidTermId);
  EXPECT_DOUBLE_EQ(out.score, 0.9);
  EXPECT_FALSE(project.Next(&out));
}

TEST(ProjectIteratorTest, PreservesOrderAndBounds) {
  std::vector<ScoredRow> rows = {Row1(2, 1, 0.9), Row1(2, 2, 0.5)};
  auto input = std::make_unique<VectorIterator>(rows);
  ProjectIterator project(std::move(input), {1});
  EXPECT_DOUBLE_EQ(project.UpperBound(), 0.9);
  ScoredRow out;
  ASSERT_TRUE(project.Next(&out));
  EXPECT_DOUBLE_EQ(project.UpperBound(), 0.5);
}

// --- end-to-end chain execution -------------------------------------------------

TEST(ChainExecutionTest, SinglePatternChainScores) {
  // Query: who plays guitar? Original: ana (1.0). Chain (w=0.8): via bass
  // players and the ukulele player.
  //   hop1 = (?s plays ?z): normalised over all plays-triples (max 100):
  //     ben->bass 0.9, cem->ukulele 0.8, eli->bass 0.6, ana->guitar 1.0,
  //     dia->piano 0.7
  //   hop2 = (?z relatedTo guitar): bass 1.0, ukulele 1.0.
  //   chain(s) = 0.4*(s1+s2): ben 0.4*1.9=0.76, cem 0.4*1.8=0.72,
  //     eli 0.4*1.6=0.64. (ana and dia have no related instrument.)
  ChainFixture fx = MakeChainFixture();
  Engine engine(&fx.store, &fx.rules);
  const Query query = fx.PlaysQuery("guitar");
  const auto result = testing::Execute(engine, query, 10, Strategy::kTrinit);
  ASSERT_EQ(result.rows.size(), 4u);
  EXPECT_EQ(result.rows[0].bindings[0], fx.store.MustId("ana"));
  EXPECT_NEAR(result.rows[0].score, 1.0, 1e-9);
  EXPECT_EQ(result.rows[1].bindings[0], fx.store.MustId("ben"));
  EXPECT_NEAR(result.rows[1].score, 0.76, 1e-9);
  EXPECT_EQ(result.rows[2].bindings[0], fx.store.MustId("cem"));
  EXPECT_NEAR(result.rows[2].score, 0.72, 1e-9);
  EXPECT_EQ(result.rows[3].bindings[0], fx.store.MustId("eli"));
  EXPECT_NEAR(result.rows[3].score, 0.64, 1e-9);
  // Rows are trimmed back to the query's own variables.
  for (const ScoredRow& row : result.rows) {
    EXPECT_EQ(row.bindings.size(), query.num_vars());
  }
}

TEST(ChainExecutionTest, MatchesExhaustiveOracle) {
  ChainFixture fx = MakeChainFixture();
  Engine engine(&fx.store, &fx.rules);
  ExhaustiveEvaluator oracle(&fx.store, &fx.rules);
  const Query query = fx.PlaysQuery("guitar");
  const auto truth = oracle.Evaluate(query);
  const auto result = testing::Execute(engine, query, 10, Strategy::kTrinit);
  ASSERT_EQ(result.rows.size(), truth.answers.size());
  for (size_t i = 0; i < truth.answers.size(); ++i) {
    EXPECT_NEAR(result.rows[i].score, truth.answers[i].score, 1e-9);
    EXPECT_EQ(result.rows[i].bindings, truth.answers[i].bindings);
  }
}

TEST(ChainExecutionTest, ChainDerivationLosesToBetterSimpleRule) {
  // Add a simple rule with a higher weight; Definition 8 keeps the maximum
  // derivation per answer.
  ChainFixture fx = MakeChainFixture();
  RelaxationRule simple;
  simple.from = PatternKey{kInvalidTermId, fx.plays, fx.guitar};
  simple.to = PatternKey{kInvalidTermId, fx.plays, fx.store.MustId("bass")};
  simple.weight = 0.95;
  ASSERT_TRUE(fx.rules.AddRule(simple).ok());

  Engine engine(&fx.store, &fx.rules);
  const auto result = testing::Execute(engine, fx.PlaysQuery("guitar"), 10,
                                     Strategy::kTrinit);
  // ben now scores max(0.76 chain, 0.95 * (90/90 = 1.0) = 0.95).
  ASSERT_GE(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[1].bindings[0], fx.store.MustId("ben"));
  EXPECT_NEAR(result.rows[1].score, 0.95, 1e-9);
}

TEST(ChainExecutionTest, TwoPatternQueryWithChain) {
  // Conjunction: plays guitar AND plays piano — empty originally (nobody
  // plays both); ana fills it through the piano pattern's chain rule
  // because she plays the organ, which is related to the piano.
  ChainFixture fx2;
  TripleStore& store = fx2.store;
  store.Add("ana", "plays", "guitar", 100.0);
  store.Add("ana", "plays", "organ", 100.0);
  store.Add("ben", "plays", "bass", 90.0);
  store.Add("dia", "plays", "piano", 70.0);
  store.Add("bass", "relatedTo", "guitar", 1.0);
  store.Add("organ", "relatedTo", "piano", 1.0);
  store.Finalize();
  fx2.plays = store.MustId("plays");
  fx2.related = store.MustId("relatedTo");

  ChainRelaxationRule piano_rule;
  piano_rule.from =
      PatternKey{kInvalidTermId, fx2.plays, store.MustId("piano")};
  piano_rule.hop1_predicate = fx2.plays;
  piano_rule.hop2_predicate = fx2.related;
  piano_rule.hop2_object = store.MustId("piano");
  piano_rule.weight = 0.6;
  ASSERT_TRUE(fx2.rules.AddChainRule(piano_rule).ok());

  Query query;
  const VarId s = query.GetOrAddVariable("s");
  query.AddPattern(TriplePattern(PatternTerm::Var(s),
                                 PatternTerm::Const(fx2.plays),
                                 PatternTerm::Const(store.MustId("guitar"))));
  query.AddPattern(TriplePattern(PatternTerm::Var(s),
                                 PatternTerm::Const(fx2.plays),
                                 PatternTerm::Const(store.MustId("piano"))));
  query.AddProjection(s);

  Engine engine(&store, &fx2.rules);
  const auto result = testing::Execute(engine, query, 5, Strategy::kTrinit);
  // ana: guitar original (1.0) + piano via chain 0.3*(organ-hop1 1.0 +
  // hop2 1.0) = 0.6 -> total 1.6.
  ASSERT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0].bindings[0], store.MustId("ana"));
  EXPECT_NEAR(result.rows[0].score, 1.6, 1e-9);

  // Oracle agrees.
  ExhaustiveEvaluator oracle(&store, &fx2.rules);
  const auto truth = oracle.Evaluate(query);
  ASSERT_EQ(truth.answers.size(), 1u);
  EXPECT_NEAR(truth.answers[0].score, 1.6, 1e-9);
}

TEST(ChainPlannerTest, SparsePatternWithOnlyChainRuleGetsRelaxed) {
  ChainFixture fx = MakeChainFixture();
  Engine engine(&fx.store, &fx.rules);
  // k=3 but "plays guitar" has a single original answer; the chain rule is
  // the only relaxation and must be chosen.
  const QueryResponse planned =
      engine.Explain(QueryRequest::FromQuery(fx.PlaysQuery("guitar"), 3));
  ASSERT_TRUE(planned.ok()) << planned.status.ToString();
  ASSERT_EQ(planned.plan.singletons.size(), 1u);
  EXPECT_TRUE(planned.diagnostics.decisions[0].has_relaxations);
  EXPECT_GT(planned.diagnostics.decisions[0].eq_prime_top, 0.0);
}

TEST(ChainPlannerTest, SpecQpExecutesChainPlan) {
  ChainFixture fx = MakeChainFixture();
  Engine engine(&fx.store, &fx.rules);
  const auto result = testing::Execute(engine, fx.PlaysQuery("guitar"), 3,
                                     Strategy::kSpecQp);
  ASSERT_EQ(result.rows.size(), 3u);
  EXPECT_NEAR(result.rows[0].score, 1.0, 1e-9);
  EXPECT_NEAR(result.rows[1].score, 0.76, 1e-9);
}

// --- chain miner ---------------------------------------------------------------

TEST(ChainMinerTest, MinesPrecisionWeights) {
  // subjects playing guitar: {ana, ben}; chain subjects (play something
  // related to guitar = bass): {ben, eli} -> weight = |{ben}| / 2 = 0.5.
  TripleStore store;
  store.Add("ana", "plays", "guitar", 10.0);
  store.Add("ben", "plays", "guitar", 9.0);
  store.Add("ben", "plays", "bass", 9.0);
  store.Add("eli", "plays", "bass", 8.0);
  store.Add("bass", "relatedTo", "guitar", 1.0);
  store.Finalize();

  ChainMinerOptions options;
  options.min_support = 1;
  options.min_weight = 0.0;
  RelaxationIndex index;
  ASSERT_TRUE(MineChainRelaxations(store, store.MustId("plays"),
                                   store.MustId("relatedTo"), options,
                                   &index)
                  .ok());
  const auto* rule = index.TopChainRule(
      PatternKey{kInvalidTermId, store.MustId("plays"),
                 store.MustId("guitar")});
  ASSERT_NE(rule, nullptr);
  EXPECT_NEAR(rule->weight, 0.5, 1e-9);
  EXPECT_EQ(rule->hop1_predicate, store.MustId("plays"));
  EXPECT_EQ(rule->hop2_predicate, store.MustId("relatedTo"));
  EXPECT_EQ(rule->hop2_object, store.MustId("guitar"));
}

TEST(ChainMinerTest, MinSupportAndWeightFilter) {
  TripleStore store;
  store.Add("ana", "plays", "guitar", 10.0);
  store.Add("eli", "plays", "bass", 8.0);
  store.Add("bass", "relatedTo", "guitar", 1.0);
  store.Finalize();

  ChainMinerOptions options;
  options.min_support = 2;  // only one chain subject (eli)
  RelaxationIndex index;
  ASSERT_TRUE(MineChainRelaxations(store, store.MustId("plays"),
                                   store.MustId("relatedTo"), options,
                                   &index)
                  .ok());
  EXPECT_EQ(index.total_chain_rules(), 0u);
}

TEST(ChainMinerTest, GeneratorProducesChainRules) {
  XkgConfig config;
  config.seed = 99;
  config.num_entities = 2000;
  config.num_domains = 4;
  config.types_per_domain = 8;
  config.num_attributes = 2;
  config.values_per_attribute = 8;
  config.generate_value_graph = true;
  const XkgDataset data = GenerateXkg(config);
  EXPECT_NE(data.related_predicate, kInvalidTermId);
  EXPECT_GT(data.rules.total_chain_rules(), 0u);
}

}  // namespace
}  // namespace specqp
