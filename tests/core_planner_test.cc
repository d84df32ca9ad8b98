#include "core/planner.h"

#include <algorithm>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "datasets/twitter_generator.h"
#include "datasets/workload.h"
#include "datasets/xkg_generator.h"
#include "test_util.h"

namespace specqp {
namespace {

// A store crafted so PLANGEN's decisions are unambiguous:
//   dense:  100 entities, flat scores     (rank-k expectation ~ 1)
//   sparse: 2 entities                    (cannot fill top-10)
//   target: 50 entities, flat scores      (relaxation target)
// Rules: dense -> target (w=0.2, weak), sparse -> target (w=0.9, strong).
struct PlannerFixture {
  TripleStore store;
  RelaxationIndex rules;
  TermId type = kInvalidTermId;

  Query TypeQuery(const std::vector<std::string>& names) const {
    Query q;
    const VarId s = q.GetOrAddVariable("s");
    for (const std::string& name : names) {
      q.AddPattern(TriplePattern(PatternTerm::Var(s), PatternTerm::Const(type),
                                 PatternTerm::Const(store.MustId(name))));
    }
    q.AddProjection(s);
    return q;
  }
};

PlannerFixture MakePlannerFixture() {
  PlannerFixture fx;
  for (int i = 0; i < 100; ++i) {
    const std::string e = "e" + std::to_string(i);
    fx.store.Add(e, "type", "dense", 100.0);
    if (i < 50) fx.store.Add(e, "type", "target", 100.0);
    if (i < 2) fx.store.Add(e, "type", "sparse", 100.0 - i);
    if (i < 3) fx.store.Add(e, "type", "tiny", 100.0 - i);
  }
  fx.store.Finalize();
  fx.type = fx.store.MustId("type");

  auto add_rule = [&](const char* from, const char* to, double w) {
    RelaxationRule rule;
    rule.from = PatternKey{kInvalidTermId, fx.type, fx.store.MustId(from)};
    rule.to = PatternKey{kInvalidTermId, fx.type, fx.store.MustId(to)};
    rule.weight = w;
    SPECQP_CHECK(fx.rules.AddRule(rule).ok());
  };
  add_rule("dense", "target", 0.2);
  add_rule("sparse", "target", 0.9);
  return fx;
}

struct PlannerHarness {
  PostingListCache postings;
  StatisticsCatalog catalog;
  SelectivityEstimator selectivity;
  ExpectedScoreEstimator estimator;
  Planner planner;

  PlannerHarness(const TripleStore* store, const RelaxationIndex* rules)
      : postings(store),
        catalog(store, &postings),
        selectivity(store),
        estimator(&catalog, &selectivity),
        planner(&estimator, rules) {}
};

TEST(PlannerTest, DensePatternWithWeakRuleStaysInJoinGroup) {
  PlannerFixture fx = MakePlannerFixture();
  PlannerHarness h(&fx.store, &fx.rules);
  const QueryPlan plan = h.planner.Plan(fx.TypeQuery({"dense"}), 5);
  EXPECT_TRUE(plan.singletons.empty());
  ASSERT_EQ(plan.join_group.size(), 1u);
  EXPECT_EQ(plan.join_group[0], 0u);
}

TEST(PlannerTest, SparsePatternTriggersRelaxation) {
  // 2 answers < k=10 means E_Q(k) = 0; any viable relaxation wins.
  PlannerFixture fx = MakePlannerFixture();
  PlannerHarness h(&fx.store, &fx.rules);
  const QueryPlan plan = h.planner.Plan(fx.TypeQuery({"sparse"}), 10);
  EXPECT_TRUE(plan.join_group.empty());
  ASSERT_EQ(plan.singletons.size(), 1u);
}

TEST(PlannerTest, PatternWithoutRulesNeverRelaxed) {
  PlannerFixture fx = MakePlannerFixture();
  PlannerHarness h(&fx.store, &fx.rules);
  // "tiny" has only 3 answers (< k) but no relaxation rules exist for it.
  const QueryPlan plan = h.planner.Plan(fx.TypeQuery({"tiny"}), 10);
  EXPECT_TRUE(plan.singletons.empty());
  EXPECT_EQ(plan.join_group.size(), 1u);
}

TEST(PlannerTest, TwoPatternQueryMixedDecision) {
  // dense ∧ target: 50 answers all scoring ~2.0. Relaxing dense via the
  // weak 0.2 rule cannot beat the k-th answer; target has no rules.
  PlannerFixture fx = MakePlannerFixture();
  PlannerHarness h(&fx.store, &fx.rules);
  const QueryPlan plan = h.planner.Plan(fx.TypeQuery({"dense", "target"}), 5);
  EXPECT_TRUE(plan.singletons.empty());
  EXPECT_EQ(plan.join_group.size(), 2u);
}

TEST(PlannerTest, JoinBelowKRelaxesEverythingWithRules) {
  // dense ∧ sparse: join has only 2 answers < k=10, so E_Q(k)=0 and every
  // pattern that has rules becomes a singleton.
  PlannerFixture fx = MakePlannerFixture();
  PlannerHarness h(&fx.store, &fx.rules);
  const QueryPlan plan = h.planner.Plan(fx.TypeQuery({"dense", "sparse"}), 10);
  EXPECT_EQ(plan.singletons.size(), 2u);
  EXPECT_TRUE(plan.join_group.empty());
}

TEST(PlannerTest, PlanAlwaysCoversQuery) {
  PlannerFixture fx = MakePlannerFixture();
  PlannerHarness h(&fx.store, &fx.rules);
  for (size_t k : {1u, 5u, 10u, 20u}) {
    for (const auto& names :
         std::vector<std::vector<std::string>>{{"dense"},
                                               {"dense", "target"},
                                               {"dense", "sparse", "target"},
                                               {"sparse", "tiny"}}) {
      const Query query = fx.TypeQuery(names);
      const QueryPlan plan = h.planner.Plan(query, k);
      std::vector<size_t> all = plan.join_group;
      all.insert(all.end(), plan.singletons.begin(), plan.singletons.end());
      std::sort(all.begin(), all.end());
      std::vector<size_t> expected(query.num_patterns());
      for (size_t i = 0; i < expected.size(); ++i) expected[i] = i;
      EXPECT_EQ(all, expected);
    }
  }
}

TEST(PlannerTest, DiagnosticsRecordDecisions) {
  PlannerFixture fx = MakePlannerFixture();
  PlannerHarness h(&fx.store, &fx.rules);
  PlanDiagnostics diag;
  const QueryPlan plan = h.planner.Plan(fx.TypeQuery({"dense", "tiny"}), 5,
                                        &diag);
  ASSERT_EQ(diag.decisions.size(), 2u);
  EXPECT_TRUE(diag.decisions[0].has_relaxations);
  EXPECT_FALSE(diag.decisions[1].has_relaxations);
  EXPECT_GT(diag.cardinality_estimate, 0.0);
  for (const PatternDecision& d : diag.decisions) {
    EXPECT_EQ(plan.IsSingleton(d.pattern_index), d.relax);
  }
}

TEST(PlannerTest, DecisionConsistentWithEstimatorComparison) {
  // The planner's decision must be exactly E_Q'(1) > E_Q(k) for each
  // pattern — checked against a by-hand re-run of the estimator.
  PlannerFixture fx = MakePlannerFixture();
  PlannerHarness h(&fx.store, &fx.rules);
  const Query query = fx.TypeQuery({"dense", "sparse"});
  for (size_t k : {1u, 3u, 10u}) {
    PlanDiagnostics diag;
    const QueryPlan plan = h.planner.Plan(query, k, &diag);
    const auto original = h.estimator.EstimateQuery(query);
    const double eq_k = original.ExpectedAtRank(k);
    EXPECT_NEAR(diag.eq_k, eq_k, 1e-12);
    for (size_t i = 0; i < query.num_patterns(); ++i) {
      const RelaxationRule* top =
          fx.rules.TopRule(query.pattern(i).Key());
      if (top == nullptr) {
        EXPECT_FALSE(plan.IsSingleton(i));
        continue;
      }
      Query relaxed = query;
      relaxed.ReplacePattern(i, ApplyRule(query.pattern(i), *top).value());
      std::vector<double> weights(query.num_patterns(), 1.0);
      weights[i] = top->weight;
      const double eq_prime =
          h.estimator.EstimateQuery(relaxed, weights).ExpectedAtRank(1);
      EXPECT_EQ(plan.IsSingleton(i), eq_prime > eq_k) << "pattern " << i;
    }
  }
}

TEST(PlannerTest, LargerKRelaxesMoreOrEqual) {
  // Monotonicity observed in the paper (section 4.5.2): as k grows,
  // queries need relaxations more often.
  testing::MusicFixture fx = testing::MakeMusicFixture();
  PlannerHarness h(&fx.store, &fx.rules);
  const Query query = fx.TypeQuery({"singer", "vocalist"});
  size_t prev = 0;
  for (size_t k : {1u, 3u, 5u, 10u, 20u}) {
    const QueryPlan plan = h.planner.Plan(query, k);
    EXPECT_GE(plan.singletons.size(), prev) << "k=" << k;
    prev = plan.singletons.size();
  }
}

// The posting lists PLANGEN compares for `query`: each pattern's own, and
// for a pattern with relaxations its top-weighted rule's target — or the
// two hops of its top chain rule when that outweighs every simple rule.
std::unordered_set<PatternKey, PatternKeyHash> ComparedKeys(
    const Query& query, const RelaxationIndex& rules) {
  std::unordered_set<PatternKey, PatternKeyHash> keys;
  for (const TriplePattern& pattern : query.patterns()) {
    const PatternKey key = pattern.Key();
    keys.insert(key);
    const RelaxationRule* top = rules.TopRule(key);
    const ChainRelaxationRule* chain = rules.TopChainRule(key);
    if (chain != nullptr && (top == nullptr || chain->weight > top->weight)) {
      auto hops = ApplyChainRule(pattern, *chain,
                                 static_cast<VarId>(query.num_vars()));
      EXPECT_TRUE(hops.ok());
      keys.insert(hops->hop1.Key());
      keys.insert(hops->hop2.Key());
    } else if (top != nullptr) {
      auto relaxed = ApplyRule(pattern, *top);
      EXPECT_TRUE(relaxed.ok());
      keys.insert(relaxed->Key());
    }
  }
  return keys;
}

// Cold Spec-QP Explain on a fresh engine per query: planning builds
// exactly the lists PLANGEN compares, and no list merely to estimate what
// a plan would read. Returns the total number of lists built.
uint64_t ExpectColdExplainBuildsComparedLists(
    const TripleStore& store, const RelaxationIndex& rules,
    const std::vector<Query>& workload) {
  uint64_t built = 0;
  for (size_t qi = 0; qi < workload.size(); ++qi) {
    const Query& query = workload[qi];
    Engine engine(&store, &rules);
    const QueryResponse explained =
        engine.Explain(QueryRequest::FromQuery(query, 10));
    EXPECT_TRUE(explained.ok()) << "q" << qi;
    const auto expected = ComparedKeys(query, rules);
    PostingListCache& postings = engine.postings();
    EXPECT_EQ(postings.misses(), expected.size()) << "q" << qi;
    EXPECT_EQ(postings.size(), expected.size()) << "q" << qi;
    for (const PatternKey& key : expected) {
      EXPECT_NE(postings.Peek(key), nullptr) << "q" << qi;
    }
    built += postings.misses();
  }
  return built;
}

TEST(PlannerTest, ColdExplainBuildsOnlyTheComparedLists) {
  // The e2ebench data: default generators, the bench workload configs.
  // Planning that also estimated the read cost of the primary and
  // runner-up plans built 1,060 and 1,201 lists here.
  const XkgDataset xkg = GenerateXkg(XkgConfig{});
  XkgWorkloadConfig xkg_workload;
  xkg_workload.seed = 71;
  xkg_workload.queries_per_size = 22;
  xkg_workload.min_relaxations = 10;
  const std::vector<Query> xkg_queries = MakeXkgWorkload(xkg, xkg_workload);
  ASSERT_EQ(xkg_queries.size(), 66u);
  EXPECT_EQ(
      ExpectColdExplainBuildsComparedLists(xkg.store, xkg.rules, xkg_queries),
      232u);

  const TwitterDataset twitter = GenerateTwitter(TwitterConfig{});
  TwitterWorkloadConfig twitter_workload;
  twitter_workload.seed = 73;
  twitter_workload.queries_per_size = 25;
  twitter_workload.min_relaxations = 5;
  const std::vector<Query> twitter_queries =
      MakeTwitterWorkload(twitter, twitter_workload);
  ASSERT_EQ(twitter_queries.size(), 50u);
  EXPECT_EQ(ExpectColdExplainBuildsComparedLists(twitter.store, twitter.rules,
                                                 twitter_queries),
            175u);
}

TEST(QueryPlanTest, TrinitPlanAllSingletons) {
  const QueryPlan plan = QueryPlan::TrinitPlan(3);
  EXPECT_TRUE(plan.join_group.empty());
  EXPECT_EQ(plan.singletons, (std::vector<size_t>{0, 1, 2}));
  EXPECT_EQ(plan.num_relaxed(), 3u);
}

TEST(QueryPlanTest, NoRelaxationsPlanAllJoinGroup) {
  const QueryPlan plan = QueryPlan::NoRelaxationsPlan(2);
  EXPECT_TRUE(plan.singletons.empty());
  EXPECT_EQ(plan.join_group, (std::vector<size_t>{0, 1}));
}

TEST(QueryPlanTest, IsSingleton) {
  QueryPlan plan;
  plan.join_group = {0, 2};
  plan.singletons = {1};
  EXPECT_FALSE(plan.IsSingleton(0));
  EXPECT_TRUE(plan.IsSingleton(1));
  EXPECT_FALSE(plan.IsSingleton(2));
}

TEST(QueryPlanTest, ToStringShape) {
  QueryPlan plan;
  plan.join_group = {0, 2};
  plan.singletons = {1};
  EXPECT_EQ(plan.ToString(), "{ q0 q2 | q1* }");
}

}  // namespace
}  // namespace specqp
