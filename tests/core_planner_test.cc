#include "core/planner.h"

#include <algorithm>
#include <chrono>
#include <unordered_set>
#include <utility>
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

// The e2ebench data: default generators, the bench workload configs (66
// XKG and 50 Twitter queries), generated once per process.
struct DefaultWorkloads {
  XkgDataset xkg = GenerateXkg(XkgConfig{});
  TwitterDataset twitter = GenerateTwitter(TwitterConfig{});
  std::vector<Query> xkg_queries;
  std::vector<Query> twitter_queries;

  DefaultWorkloads() {
    XkgWorkloadConfig xkg_workload;
    xkg_workload.seed = 71;
    xkg_workload.queries_per_size = 22;
    xkg_workload.min_relaxations = 10;
    xkg_queries = MakeXkgWorkload(xkg, xkg_workload);
    TwitterWorkloadConfig twitter_workload;
    twitter_workload.seed = 73;
    twitter_workload.queries_per_size = 25;
    twitter_workload.min_relaxations = 5;
    twitter_queries = MakeTwitterWorkload(twitter, twitter_workload);
  }
};

const DefaultWorkloads& Workloads() {
  static const DefaultWorkloads* workloads = new DefaultWorkloads();
  return *workloads;
}

TEST(PlannerTest, ColdExplainBuildsOnlyTheComparedLists) {
  // Planning that also estimated the read cost of the primary and
  // runner-up plans built 1,060 and 1,201 lists here.
  const DefaultWorkloads& data = Workloads();
  ASSERT_EQ(data.xkg_queries.size(), 66u);
  EXPECT_EQ(ExpectColdExplainBuildsComparedLists(data.xkg.store, data.xkg.rules,
                                                 data.xkg_queries),
            232u);
  ASSERT_EQ(data.twitter_queries.size(), 50u);
  EXPECT_EQ(ExpectColdExplainBuildsComparedLists(
                data.twitter.store, data.twitter.rules, data.twitter_queries),
            175u);
}

// --- exact cardinality ------------------------------------------------------

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define SPECQP_SANITIZED_BUILD 1
#endif
#if !defined(SPECQP_SANITIZED_BUILD) && defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define SPECQP_SANITIZED_BUILD 1
#endif
#endif

// A query's answer count by a nested-loop join in the query's own pattern
// order, +1 per answer: the count PLANGEN used before it split components
// and counted last patterns by their match range.
uint64_t CountByEnumeration(const TripleStore& store, const Query& query) {
  std::vector<TermId> bindings(query.num_vars(), kInvalidTermId);
  auto count_from = [&](auto&& self, size_t depth) -> uint64_t {
    if (depth == query.num_patterns()) return 1;
    const TriplePattern& q = query.pattern(depth);
    PatternKey key = q.Key();
    const auto refine = [&](const PatternTerm& term, TermId* out) {
      if (term.is_variable() && bindings[term.var()] != kInvalidTermId) {
        *out = bindings[term.var()];
      }
    };
    refine(q.s, &key.s);
    refine(q.p, &key.p);
    refine(q.o, &key.o);
    uint64_t count = 0;
    for (const uint32_t idx : store.MatchIndices(key)) {
      const Triple& t = store.triple(idx);
      VarId bound_here[3];
      int num_bound = 0;
      bool ok = true;
      for (const auto& [term, value] :
           {std::pair{q.s, t.s}, std::pair{q.p, t.p}, std::pair{q.o, t.o}}) {
        if (!term.is_variable()) continue;
        TermId& slot = bindings[term.var()];
        if (slot == kInvalidTermId) {
          slot = value;
          bound_here[num_bound++] = term.var();
        } else {
          ok = ok && slot == value;
        }
      }
      if (ok) count += self(self, depth + 1);
      for (int i = 0; i < num_bound; ++i) bindings[bound_here[i]] = kInvalidTermId;
    }
    return count;
  };
  return count_from(count_from, 0);
}

// The counts PLANGEN compares for the e2ebench workloads: each query, and
// each query with one pattern replaced by its top simple relaxation.
TEST(PlannerTest, ExactCardinalityOfWorkloadQueriesIsUnchanged) {
  const DefaultWorkloads& data = Workloads();
  const struct {
    const TripleStore* store;
    const RelaxationIndex* rules;
    const std::vector<Query>& queries;
  } bundles[] = {
      {&data.xkg.store, &data.xkg.rules, data.xkg_queries},
      {&data.twitter.store, &data.twitter.rules, data.twitter_queries},
  };
  ASSERT_EQ(data.xkg_queries.size() + data.twitter_queries.size(), 116u);
  size_t checked = 0;
  for (const auto& bundle : bundles) {
    SelectivityEstimator estimator(bundle.store);
    for (size_t qi = 0; qi < bundle.queries.size(); ++qi) {
      const Query& query = bundle.queries[qi];
      std::vector<Query> variants = {query};
      for (size_t i = 0; i < query.num_patterns(); ++i) {
        const RelaxationRule* top = bundle.rules->TopRule(query.pattern(i).Key());
        if (top == nullptr) continue;
        auto relaxed = ApplyRule(query.pattern(i), *top);
        ASSERT_TRUE(relaxed.ok());
        variants.push_back(query);
        variants.back().ReplacePattern(i, relaxed.value());
      }
      for (const Query& variant : variants) {
        EXPECT_EQ(estimator.ExactQueryCardinality(variant),
                  CountByEnumeration(*bundle.store, variant))
            << "q" << qi;
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 116u);
}

// A cross product and a high-fan-out self-join: counting each component on
// its own and the last pattern by its range keeps the exact counts cheap.
// Enumerating every answer planned them in 50 s and 0.7 s.
TEST(PlannerTest, CrossProductAndSelfJoinPlanQuickly) {
#if defined(SPECQP_SANITIZED_BUILD)
  constexpr double kPlanBudgetMs = 10000.0;
#else
  constexpr double kPlanBudgetMs = 1000.0;
#endif
  const XkgDataset& xkg = Workloads().xkg;
  EngineOptions options;
  options.num_threads = 1;
  const struct {
    const char* text;
    double cardinality;
  } cases[] = {
      {"SELECT * WHERE { ?a <rdf:type> ?t . ?b <plays> ?v }", 1043248030.0},
      {"SELECT * WHERE { ?a <rdf:type> ?t . ?b <rdf:type> ?t }", 19253126.0},
  };
  for (const auto& c : cases) {
    Engine engine(&xkg.store, &xkg.rules, options);
    const QueryResponse explained =
        engine.Explain(QueryRequest::FromText(c.text, 10));
    ASSERT_TRUE(explained.ok()) << explained.status.ToString();
    EXPECT_EQ(explained.diagnostics.cardinality_estimate, c.cardinality)
        << c.text;
    EXPECT_LT(explained.stats.plan_ms, kPlanBudgetMs) << c.text;
  }
}

// A 3-pattern self-join still has an expensive exact count; its
// enumeration polls the request's deadline, so Submit and Explain stop on
// time instead of after the count.
TEST(PlannerTest, DeadlineStopsAnExpensiveCount) {
#if defined(SPECQP_SANITIZED_BUILD)
  constexpr double kBudgetMs = 500.0;
#else
  constexpr double kBudgetMs = 50.0;
#endif
  constexpr auto kDeadline = std::chrono::milliseconds(100);
  const char* text =
      "SELECT * WHERE { ?a <rdf:type> ?t . ?b <rdf:type> ?t . "
      "?c <rdf:type> ?t }";
  const XkgDataset& xkg = Workloads().xkg;
  EngineOptions options;
  options.num_threads = 1;
  for (const bool explain : {false, true}) {
    Engine engine(&xkg.store, &xkg.rules, options);
    QueryRequest request = QueryRequest::FromText(text, 10);
    request.admission = QueryRequest::Admission::kImmediate;
    request.WithTimeout(kDeadline);
    const auto deadline = *request.deadline;
    const QueryResponse response =
        explain ? engine.Explain(request)
                : engine.Submit(std::move(request)).get();
    const double late_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - deadline)
                               .count();
    EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded)
        << (explain ? "Explain: " : "Submit: ") << response.status.ToString();
    EXPECT_TRUE(response.rows.empty());
    EXPECT_LT(late_ms, kBudgetMs) << (explain ? "Explain" : "Submit");
  }
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
