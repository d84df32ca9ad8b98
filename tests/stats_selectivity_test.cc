#include "stats/selectivity.h"

#include <array>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"
#include "util/random.h"

namespace specqp {
namespace {

using specqp::testing::MakeMusicFixture;
using specqp::testing::MakeRandomStarQuery;
using specqp::testing::MakeRandomStore;
using specqp::testing::MusicFixture;

// The definition of the answer count: every tuple of store triples, one per
// pattern, that agrees on the constants and binds each variable to one
// term. No index, join order, component split or range shortcut.
uint64_t BruteForceCount(const TripleStore& store, const Query& query) {
  std::vector<TermId> bindings(query.num_vars(), kInvalidTermId);
  auto count_from = [&](auto&& self, size_t depth) -> uint64_t {
    if (depth == query.num_patterns()) return 1;
    const TriplePattern& q = query.pattern(depth);
    uint64_t count = 0;
    for (const Triple& t : store.triples()) {
      std::vector<VarId> bound_here;
      bool ok = true;
      for (const auto& [term, value] :
           {std::pair{q.s, t.s}, std::pair{q.p, t.p}, std::pair{q.o, t.o}}) {
        if (!term.is_variable()) {
          ok = ok && term.term() == value;
        } else if (bindings[term.var()] == kInvalidTermId) {
          bindings[term.var()] = value;
          bound_here.push_back(term.var());
        } else {
          ok = ok && bindings[term.var()] == value;
        }
      }
      if (ok) count += self(self, depth + 1);
      for (const VarId v : bound_here) bindings[v] = kInvalidTermId;
    }
    return count;
  };
  return count_from(count_from, 0);
}

// ?a <p> ?b style patterns: each position a constant or a variable.
TriplePattern Pattern(Query* q, const TripleStore& store, const char* s,
                      const char* p, const char* o) {
  const auto term = [&](const char* name) {
    return name[0] == '?' ? PatternTerm::Var(q->GetOrAddVariable(name + 1))
                          : PatternTerm::Const(store.MustId(name));
  };
  return TriplePattern(term(s), term(p), term(o));
}

TEST(SelectivityTest, ExactPairCountStarJoin) {
  MusicFixture fx = MakeMusicFixture();
  Query q = fx.TypeQuery({"singer", "vocalist"});
  SelectivityEstimator est(&fx.store);
  // singer ∩ vocalist = {shakira, beyonce, adele}.
  EXPECT_DOUBLE_EQ(est.JoinCardinality(q.pattern(0), q.pattern(1)), 3.0);
}

TEST(SelectivityTest, ExactPairCountEmptyIntersection) {
  MusicFixture fx = MakeMusicFixture();
  Query q = fx.TypeQuery({"jazz_singer", "guitarist"});
  SelectivityEstimator est(&fx.store);
  EXPECT_DOUBLE_EQ(est.JoinCardinality(q.pattern(0), q.pattern(1)), 0.0);
}

TEST(SelectivityTest, SelectivityIsCountOverProduct) {
  MusicFixture fx = MakeMusicFixture();
  Query q = fx.TypeQuery({"singer", "vocalist"});
  SelectivityEstimator est(&fx.store);
  // |singer|=5, |vocalist|=6, join=3 -> phi = 3/30.
  EXPECT_NEAR(est.Selectivity(q.pattern(0), q.pattern(1)), 0.1, 1e-12);
}

TEST(SelectivityTest, CrossProductWhenNoSharedVars) {
  MusicFixture fx = MakeMusicFixture();
  Query q;
  const VarId a = q.GetOrAddVariable("a");
  const VarId b = q.GetOrAddVariable("b");
  q.AddPattern(TriplePattern(PatternTerm::Var(a), PatternTerm::Const(fx.type),
                             PatternTerm::Const(fx.Id("singer"))));
  q.AddPattern(TriplePattern(PatternTerm::Var(b), PatternTerm::Const(fx.type),
                             PatternTerm::Const(fx.Id("pianist"))));
  SelectivityEstimator est(&fx.store);
  EXPECT_DOUBLE_EQ(est.JoinCardinality(q.pattern(0), q.pattern(1)),
                   5.0 * 4.0);
}

TEST(SelectivityTest, QueryCardinalityTwoPatterns) {
  MusicFixture fx = MakeMusicFixture();
  Query q = fx.TypeQuery({"singer", "vocalist"});
  SelectivityEstimator est(&fx.store);
  EXPECT_NEAR(est.QueryCardinality(q), 3.0, 1e-9);
  SelectivityEstimator chained(&fx.store,
                               SelectivityEstimator::Mode::kPairwiseExact);
  EXPECT_NEAR(chained.QueryCardinality(q), 3.0, 1e-9);
}

TEST(SelectivityTest, ExactQueryCardinalityIsMemoised) {
  MusicFixture fx = MakeMusicFixture();
  Query q = fx.TypeQuery({"singer", "vocalist", "writer"});
  SelectivityEstimator est(&fx.store);
  const uint64_t first = est.ExactQueryCardinality(q);
  const size_t memo_after_first = est.memo_size();
  EXPECT_EQ(est.ExactQueryCardinality(q), first);
  EXPECT_EQ(est.memo_size(), memo_after_first);
}

TEST(SelectivityTest, ChainedOverestimatesOnCorrelatedPatterns) {
  // The conditional-independence chain can only be validated as an
  // *estimate*: on a 3-pattern query it should be positive whenever the
  // exact count is.
  MusicFixture fx = MakeMusicFixture();
  Query q = fx.TypeQuery({"singer", "vocalist", "writer"});
  SelectivityEstimator exact(&fx.store);
  SelectivityEstimator chained(&fx.store,
                               SelectivityEstimator::Mode::kPairwiseExact);
  EXPECT_GT(exact.QueryCardinality(q), 0.0);
  EXPECT_GT(chained.QueryCardinality(q), 0.0);
}

TEST(SelectivityTest, ExactQueryCardinalityMatchesBruteForce) {
  MusicFixture fx = MakeMusicFixture();
  SelectivityEstimator est(&fx.store);
  EXPECT_EQ(est.ExactQueryCardinality(fx.TypeQuery({"singer"})), 5u);
  EXPECT_EQ(est.ExactQueryCardinality(fx.TypeQuery({"singer", "vocalist"})),
            3u);
  EXPECT_EQ(est.ExactQueryCardinality(
                fx.TypeQuery({"singer", "vocalist", "writer"})),
            1u);  // shakira
  EXPECT_EQ(est.ExactQueryCardinality(
                fx.TypeQuery({"singer", "lyricist", "guitarist", "pianist"})),
            0u);

  // Shapes the component split and the range shortcut must count exactly:
  // disconnected components (a cross product), variables repeated inside
  // one pattern (the last pattern may then not be counted by its range),
  // variable predicates and objects, and 3-pattern self-joins and chains.
  const std::vector<std::vector<std::array<const char*, 3>>> shapes = {
      {{"?a", "rdf:type", "singer"}, {"?b", "rdf:type", "pianist"}},
      {{"?a", "rdf:type", "singer"},
       {"?b", "rdf:type", "pianist"},
       {"?c", "rdf:type", "jazz_singer"}},
      {{"?a", "rdf:type", "singer"},
       {"?a", "rdf:type", "vocalist"},
       {"?b", "rdf:type", "?t"}},
      {{"?a", "rdf:type", "?t"}, {"?b", "rdf:type", "?t"}},
      {{"?a", "rdf:type", "?t"}, {"?b", "rdf:type", "?t"}, {"?c", "rdf:type", "?t"}},
      {{"?a", "?p", "?t"}, {"?b", "?p", "?t"}},
      {{"?a", "?p", "singer"}, {"?a", "?q", "?o"}, {"?b", "?q", "writer"}},
      {{"?a", "rdf:type", "?t"}, {"?a", "?p", "?a"}},
      {{"?a", "?a", "?a"}},
      {{"shakira", "rdf:type", "singer"}, {"?b", "rdf:type", "pianist"}},
  };
  for (size_t i = 0; i < shapes.size(); ++i) {
    Query q;
    for (const auto& [s, p, o] : shapes[i]) {
      q.AddPattern(Pattern(&q, fx.store, s, p, o));
    }
    EXPECT_EQ(est.ExactQueryCardinality(q), BruteForceCount(fx.store, q))
        << "shape " << i;
  }

  // Self loops, so repeated variables meet matching and non-matching
  // triples.
  TripleStore loops;
  loops.Add("a", "p", "a", 1.0);
  loops.Add("a", "p", "b", 2.0);
  loops.Add("b", "p", "b", 3.0);
  loops.Add("b", "q", "a", 4.0);
  loops.Add("c", "q", "c", 5.0);
  loops.Add("q", "q", "q", 6.0);
  loops.Finalize();
  SelectivityEstimator loop_est(&loops);
  const std::vector<std::vector<std::array<const char*, 3>>> loop_shapes = {
      {{"?x", "p", "?y"}, {"?y", "?r", "?y"}},
      {{"?x", "?r", "?y"}, {"?y", "?r", "?x"}},
      {{"?x", "?r", "?x"}, {"?y", "q", "?z"}},
      {{"?x", "p", "?y"}, {"?y", "p", "?z"}, {"?z", "?r", "?x"}},
      {{"?x", "?x", "?x"}, {"?x", "?r", "?y"}},
  };
  for (size_t i = 0; i < loop_shapes.size(); ++i) {
    Query q;
    for (const auto& [s, p, o] : loop_shapes[i]) {
      q.AddPattern(Pattern(&q, loops, s, p, o));
    }
    EXPECT_EQ(loop_est.ExactQueryCardinality(q), BruteForceCount(loops, q))
        << "loop shape " << i;
  }

  // Random 1-3 pattern queries over a small vocabulary, so components,
  // repeats and empty joins all turn up.
  Rng rng(97);
  specqp::testing::RandomStoreConfig cfg;
  cfg.num_subjects = 8;
  cfg.num_predicates = 3;
  cfg.num_objects = 8;
  cfg.num_triples = 60;
  const TripleStore store = MakeRandomStore(&rng, cfg);
  SelectivityEstimator random_est(&store);
  const std::span<const Triple> triples = store.triples();
  for (int trial = 0; trial < 200; ++trial) {
    Query q;
    const size_t n = 1 + rng.NextBounded(3);
    for (size_t j = 0; j < n; ++j) {
      const Triple& t = triples[rng.NextBounded(triples.size())];
      const auto term = [&](TermId value) {
        if (rng.NextBounded(3) == 0) return PatternTerm::Const(value);
        const char* names[] = {"a", "b", "c", "d"};
        return PatternTerm::Var(q.GetOrAddVariable(names[rng.NextBounded(4)]));
      };
      q.AddPattern(TriplePattern(term(t.s), term(t.p), term(t.o)));
    }
    EXPECT_EQ(random_est.ExactQueryCardinality(q), BruteForceCount(store, q))
        << "trial " << trial;
  }
}

TEST(SelectivityTest, MemoisationCachesPairCounts) {
  MusicFixture fx = MakeMusicFixture();
  Query q = fx.TypeQuery({"singer", "vocalist"});
  SelectivityEstimator est(&fx.store);
  (void)est.JoinCardinality(q.pattern(0), q.pattern(1));
  const size_t after_first = est.memo_size();
  (void)est.JoinCardinality(q.pattern(0), q.pattern(1));
  EXPECT_EQ(est.memo_size(), after_first);
}

TEST(SelectivityTest, IndependenceModeStarJoin) {
  MusicFixture fx = MakeMusicFixture();
  Query q = fx.TypeQuery({"singer", "vocalist"});
  SelectivityEstimator est(&fx.store,
                           SelectivityEstimator::Mode::kIndependence);
  // d(singer)=5 subjects, d(vocalist)=6 -> phi = 1/6, card = 5*6/6 = 5.
  EXPECT_NEAR(est.JoinCardinality(q.pattern(0), q.pattern(1)), 5.0, 1e-9);
}

TEST(SelectivityTest, ChainQueryCardinality) {
  // ?x p ?y . ?y p ?z over a small chain graph.
  TripleStore store;
  store.Add("a", "p", "b", 1.0);
  store.Add("b", "p", "c", 1.0);
  store.Add("c", "p", "d", 1.0);
  store.Finalize();
  Query q;
  const VarId x = q.GetOrAddVariable("x");
  const VarId y = q.GetOrAddVariable("y");
  const VarId z = q.GetOrAddVariable("z");
  const TermId p = store.MustId("p");
  q.AddPattern(TriplePattern(PatternTerm::Var(x), PatternTerm::Const(p),
                             PatternTerm::Var(y)));
  q.AddPattern(TriplePattern(PatternTerm::Var(y), PatternTerm::Const(p),
                             PatternTerm::Var(z)));
  SelectivityEstimator est(&store);
  // Chains a->b->c and b->c->d.
  EXPECT_EQ(est.ExactQueryCardinality(q), 2u);
  EXPECT_NEAR(est.JoinCardinality(q.pattern(0), q.pattern(1)), 2.0, 1e-12);
}

TEST(SelectivityTest, RepeatedVariablePattern) {
  TripleStore store;
  store.Add("a", "p", "a", 1.0);  // self loop
  store.Add("a", "p", "b", 1.0);
  store.Finalize();
  Query q;
  const VarId x = q.GetOrAddVariable("x");
  const TermId p = store.MustId("p");
  q.AddPattern(TriplePattern(PatternTerm::Var(x), PatternTerm::Const(p),
                             PatternTerm::Var(x)));
  SelectivityEstimator est(&store);
  EXPECT_EQ(est.ExactQueryCardinality(q), 1u);  // only the self loop
}

// Property: left-deep chained estimate with exact pairwise selectivities
// equals the exact count for 2-pattern star queries (they coincide by
// construction) and stays within a factor for 3-pattern ones.
class SelectivityPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SelectivityPropertyTest, PairwiseChainingIsExactForTwoPatterns) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7 + 1);
  specqp::testing::RandomStoreConfig cfg;
  cfg.num_triples = 200;
  TripleStore store = MakeRandomStore(&rng, cfg);
  SelectivityEstimator est(&store, SelectivityEstimator::Mode::kPairwiseExact);
  for (int trial = 0; trial < 5; ++trial) {
    Query q = MakeRandomStarQuery(&rng, store, 2);
    EXPECT_NEAR(est.QueryCardinality(q),
                static_cast<double>(est.ExactQueryCardinality(q)), 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SelectivityPropertyTest,
                         ::testing::Range(0, 8));

}  // namespace
}  // namespace specqp
