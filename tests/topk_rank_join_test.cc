#include "topk/rank_join.h"

#include <algorithm>
#include <set>
#include <tuple>
#include <unordered_set>

#include <gtest/gtest.h>

#include "test_util.h"
#include "topk/top_k.h"

namespace specqp {
namespace {

using specqp::testing::Drain;
using specqp::testing::VectorIterator;

// Rows over a 2-variable schema: var 0 is the join key, var 1 carries a
// side-specific payload so merged rows are distinguishable.
std::unique_ptr<VectorIterator> LeftInput(
    const std::vector<std::pair<TermId, double>>& rows) {
  std::vector<ScoredRow> v;
  for (const auto& [key, score] : rows) {
    ScoredRow row(2, score);
    row.bindings[0] = key;
    v.push_back(std::move(row));
  }
  return std::make_unique<VectorIterator>(std::move(v));
}

std::unique_ptr<VectorIterator> RightInput(
    const std::vector<std::tuple<TermId, TermId, double>>& rows) {
  std::vector<ScoredRow> v;
  for (const auto& [key, payload, score] : rows) {
    ScoredRow row(2, score);
    row.bindings[0] = key;
    row.bindings[1] = payload;
    v.push_back(std::move(row));
  }
  return std::make_unique<VectorIterator>(std::move(v));
}

TEST(RankJoinTest, JoinsOnSharedVariable) {
  ExecStats stats;
  ExecContext ctx(&stats);
  RankJoin join(LeftInput({{1, 0.9}, {2, 0.5}}),
                RightInput({{1, 10, 0.8}, {3, 30, 0.7}, {2, 20, 0.6}}),
                {0}, &ctx);
  const auto rows = Drain(&join);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_DOUBLE_EQ(rows[0].score, 0.9 + 0.8);
  EXPECT_EQ(rows[0].bindings[0], 1u);
  EXPECT_EQ(rows[0].bindings[1], 10u);
  EXPECT_DOUBLE_EQ(rows[1].score, 0.5 + 0.6);
  EXPECT_EQ(rows[1].bindings[1], 20u);
}

TEST(RankJoinTest, EmitsInDescendingScoreOrder) {
  ExecStats stats;
  ExecContext ctx(&stats);
  RankJoin join(
      LeftInput({{1, 0.9}, {2, 0.85}, {3, 0.2}}),
      RightInput({{3, 33, 1.0}, {2, 22, 0.4}, {1, 11, 0.05}}), {0}, &ctx);
  const auto rows = Drain(&join);
  ASSERT_EQ(rows.size(), 3u);
  // Scores: 1+0.05=0.95? no: (1:0.9+0.05=0.95), (2:0.85+0.4=1.25),
  // (3:0.2+1.0=1.2) -> order 1.25, 1.2, 0.95.
  EXPECT_DOUBLE_EQ(rows[0].score, 1.25);
  EXPECT_DOUBLE_EQ(rows[1].score, 1.2);
  EXPECT_DOUBLE_EQ(rows[2].score, 0.95);
}

TEST(RankJoinTest, EmptyInputs) {
  ExecStats stats;
  ExecContext ctx(&stats);
  RankJoin join(LeftInput({}), RightInput({{1, 10, 0.8}}), {0}, &ctx);
  ScoredRow row;
  EXPECT_FALSE(join.Next(&row));
  EXPECT_FALSE(join.Next(&row));
}

TEST(RankJoinTest, NoMatchingKeys) {
  ExecStats stats;
  ExecContext ctx(&stats);
  RankJoin join(LeftInput({{1, 0.9}}), RightInput({{2, 20, 0.8}}), {0},
                &ctx);
  ScoredRow row;
  EXPECT_FALSE(join.Next(&row));
  EXPECT_EQ(stats.join_results, 0u);
}

TEST(RankJoinTest, OneToManyJoin) {
  ExecStats stats;
  ExecContext ctx(&stats);
  RankJoin join(LeftInput({{1, 0.9}}),
                RightInput({{1, 10, 0.8}, {1, 11, 0.5}, {1, 12, 0.1}}), {0},
                &ctx);
  const auto rows = Drain(&join);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_DOUBLE_EQ(rows[0].score, 1.7);
  EXPECT_DOUBLE_EQ(rows[2].score, 1.0);
  EXPECT_EQ(stats.join_results, 3u);
}

TEST(RankJoinTest, CrossProductWhenNoJoinVars) {
  ExecStats stats;
  ExecContext ctx(&stats);
  RankJoin join(LeftInput({{1, 0.9}, {2, 0.5}}),
                RightInput({{0, 10, 0.8}, {0, 11, 0.3}}), {}, &ctx);
  const auto rows = Drain(&join);
  EXPECT_EQ(rows.size(), 4u);
  EXPECT_DOUBLE_EQ(rows[0].score, 1.7);
  double prev = 2.0;
  for (const ScoredRow& row : rows) {
    EXPECT_LE(row.score, prev + 1e-12);
    prev = row.score;
  }
}

TEST(RankJoinTest, BothInputsEmpty) {
  ExecStats stats;
  ExecContext ctx(&stats);
  RankJoin join(LeftInput({}), RightInput({}), {0}, &ctx);
  ScoredRow row;
  EXPECT_FALSE(join.Next(&row));
  EXPECT_FALSE(join.Next(&row));
  EXPECT_EQ(stats.join_results, 0u);

  ExecStats cross_stats;
  ExecContext cross_ctx(&cross_stats);
  RankJoin cross(LeftInput({}), RightInput({}), {}, &cross_ctx);
  EXPECT_FALSE(cross.Next(&row));
  EXPECT_EQ(cross_stats.join_results, 0u);
}

TEST(RankJoinTest, NextAfterExhaustionKeepsReturningFalse) {
  ExecStats stats;
  ExecContext ctx(&stats);
  RankJoin join(LeftInput({{1, 0.9}}), RightInput({{1, 10, 0.8}}), {0},
                &ctx);
  ScoredRow row;
  ASSERT_TRUE(join.Next(&row));
  EXPECT_DOUBLE_EQ(row.score, 1.7);
  for (int i = 0; i < 5; ++i) {
    row.score = -1.0;
    EXPECT_FALSE(join.Next(&row));
  }
  EXPECT_EQ(stats.join_results, 1u);
}

// --- MergeBindingsInto contract (left wins on non-join conflicts) ------------

TEST(MergeBindingsTest, FillsUnboundSlotsFromRight) {
  ScoredRow left(3, 0.5);
  left.bindings[0] = 7;
  ScoredRow right(3, 0.2);
  right.bindings[1] = 8;
  MergeBindingsInto(right, &left);
  EXPECT_EQ(left.bindings[0], 7u);
  EXPECT_EQ(left.bindings[1], 8u);
  EXPECT_EQ(left.bindings[2], kInvalidTermId);
}

TEST(MergeBindingsTest, LeftWinsOnConflictingSlots) {
  ScoredRow left(2, 0.9);
  left.bindings[0] = 1;
  ScoredRow right(2, 0.8);
  right.bindings[0] = 2;
  right.bindings[1] = 20;
  MergeBindingsInto(right, &left);
  EXPECT_EQ(left.bindings[0], 1u) << "probe (left) row's binding must win";
  EXPECT_EQ(left.bindings[1], 20u);
}

TEST(RankJoinTest, CrossProductLeftInputBindingsWin) {
  // In a cross product the two sides bind the same slots to different
  // terms; the LEFT input's binding must win deterministically — never
  // depending on internal pull order — while slots bound only on the
  // right are still filled from the right.
  ExecStats stats;
  ExecContext ctx(&stats);
  RankJoin join(LeftInput({{1, 0.9}}), RightInput({{2, 20, 0.8}}), {},
                &ctx);
  const auto rows = Drain(&join);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rows[0].score, 1.7);
  EXPECT_EQ(rows[0].bindings[0], 1u) << "left input's binding must win";
  EXPECT_EQ(rows[0].bindings[1], 20u);

  // Same inputs with the right side scoring higher (so the right side is
  // pulled and probed first): the left input's binding still wins.
  ExecStats stats2;
  ExecContext ctx2(&stats2);
  RankJoin join2(LeftInput({{1, 0.3}}), RightInput({{2, 20, 0.8}}), {},
                 &ctx2);
  const auto rows2 = Drain(&join2);
  ASSERT_EQ(rows2.size(), 1u);
  EXPECT_EQ(rows2[0].bindings[0], 1u) << "must not depend on probe order";
  EXPECT_EQ(rows2[0].bindings[1], 20u);
}

TEST(RankJoinTest, UpperBoundNeverIncreasesAndBoundsEmissions) {
  ExecStats stats;
  ExecContext ctx(&stats);
  RankJoin join(
      LeftInput({{1, 0.9}, {2, 0.8}, {3, 0.7}, {4, 0.1}}),
      RightInput(
          {{4, 44, 0.95}, {2, 22, 0.6}, {1, 11, 0.5}, {3, 33, 0.2}}),
      {0}, &ctx);
  double prev = join.UpperBound();
  ScoredRow row;
  while (join.Next(&row)) {
    EXPECT_LE(row.score, prev + 1e-9);
    const double bound = join.UpperBound();
    EXPECT_LE(bound, prev + 1e-9);
    prev = bound;
  }
}

TEST(RankJoinTest, EarlyTerminationReadsOnlyWhatIsNeeded) {
  // Long tails that can never contribute to the top answer must not be
  // read once the threshold proves it.
  std::vector<std::pair<TermId, double>> left_rows = {{1, 1.0}};
  std::vector<std::tuple<TermId, TermId, double>> right_rows = {{1, 11, 1.0}};
  for (TermId i = 2; i < 1000; ++i) {
    left_rows.emplace_back(i, 0.001);
    right_rows.emplace_back(i, i * 10, 0.001);
  }
  ExecStats stats;
  ExecContext ctx(&stats);
  RankJoin join(LeftInput(left_rows), RightInput(right_rows), {0}, &ctx);
  ScoredRow row;
  ASSERT_TRUE(join.Next(&row));
  EXPECT_DOUBLE_EQ(row.score, 2.0);
  // Producing the top-1 result must not have materialised the ~1000
  // tail join results.
  EXPECT_LT(stats.join_results, 10u);
}

// --- property: rank join == naive join, top-k prefix -------------------------

struct NaiveResult {
  TermId key;
  TermId payload;
  double score;
};

class RankJoinPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(RankJoinPropertyTest, MatchesNaiveJoin) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 1231 + 17);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t nl = 1 + rng.NextBounded(30);
    const size_t nr = 1 + rng.NextBounded(30);
    std::vector<std::pair<TermId, double>> left;
    std::vector<std::tuple<TermId, TermId, double>> right;
    double score = 1.0;
    std::unordered_set<TermId> used_left;
    for (size_t i = 0; i < nl; ++i) {
      score *= rng.NextDouble(0.7, 1.0);
      const TermId key = static_cast<TermId>(rng.NextBounded(12));
      if (!used_left.insert(key).second) continue;  // distinct bindings
      left.emplace_back(key, score);
    }
    score = 1.0;
    std::unordered_set<uint64_t> used_right;
    for (size_t i = 0; i < nr; ++i) {
      score *= rng.NextDouble(0.7, 1.0);
      const TermId key = static_cast<TermId>(rng.NextBounded(12));
      const TermId payload = static_cast<TermId>(100 + rng.NextBounded(5));
      if (!used_right.insert((static_cast<uint64_t>(key) << 32) | payload)
               .second) {
        continue;
      }
      right.emplace_back(key, payload, score);
    }

    // Naive join: all pairs, sorted by (score desc, bindings asc).
    std::vector<ScoredRow> expected;
    for (const auto& [lk, ls] : left) {
      for (const auto& [rk, payload, rs] : right) {
        if (lk != rk) continue;
        ScoredRow row(2, ls + rs);
        row.bindings[0] = lk;
        row.bindings[1] = payload;
        expected.push_back(std::move(row));
      }
    }
    std::sort(expected.begin(), expected.end(), RowBefore);

    ExecStats stats;

    ExecContext ctx(&stats);
    RankJoin join(LeftInput(left), RightInput(right), {0}, &ctx);
    const auto actual = Drain(&join);

    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < actual.size(); ++i) {
      EXPECT_NEAR(actual[i].score, expected[i].score, 1e-9) << "rank " << i;
    }
    // As multisets of bindings the outputs agree exactly.
    auto key_of = [](const ScoredRow& r) {
      return std::make_tuple(r.bindings[0], r.bindings[1]);
    };
    std::multiset<std::tuple<TermId, TermId>> expected_keys;
    std::multiset<std::tuple<TermId, TermId>> actual_keys;
    for (const auto& r : expected) expected_keys.insert(key_of(r));
    for (const auto& r : actual) actual_keys.insert(key_of(r));
    EXPECT_EQ(actual_keys, expected_keys);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RankJoinPropertyTest, ::testing::Range(0, 10));

// --- differential: rank join == brute-force nested-loop join ---------------

// `n` rows of a `width`-slot schema binding the slots flagged in `bound` to
// values in [1, domain], score-descending. Scores come from `levels`
// distinct values, so few levels make wide tie bands.
std::vector<ScoredRow> RandomSide(Rng* rng, size_t width,
                                  const std::vector<bool>& bound, size_t n,
                                  uint64_t domain, uint64_t levels) {
  std::vector<ScoredRow> rows;
  for (size_t i = 0; i < n; ++i) {
    const double level = static_cast<double>(rng->NextBounded(levels));
    ScoredRow row(width, 0.05 + 0.37 * level);
    for (size_t v = 0; v < width; ++v) {
      if (!bound[v]) continue;
      row.bindings[v] = static_cast<TermId>(1 + rng->NextBounded(domain));
    }
    rows.push_back(std::move(row));
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const ScoredRow& a, const ScoredRow& b) {
                     return a.score > b.score;
                   });
  return rows;
}

class RankJoinDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(RankJoinDifferentialTest, EmitsExactlyTheNestedLoopJoin) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 3);
  for (int trial = 0; trial < 40; ++trial) {
    // Up to 12 slots: the query's variables plus chain scratch slots.
    const size_t width = 1 + rng.NextBounded(12);
    const size_t num_join = rng.NextBounded(std::min<size_t>(width, 3) + 1);
    std::vector<VarId> slots(width);
    for (size_t v = 0; v < width; ++v) slots[v] = static_cast<VarId>(v);
    rng.Shuffle(&slots);
    std::vector<VarId> join_vars(slots.begin(), slots.begin() + num_join);
    std::sort(join_vars.begin(), join_vars.end());

    // Both sides bind the join variables; each other slot is bound on
    // either side, both (a non-join conflict the left side wins) or none.
    std::vector<bool> left_bound(width, false);
    std::vector<bool> right_bound(width, false);
    for (VarId v : join_vars) left_bound[v] = right_bound[v] = true;
    for (size_t v = 0; v < width; ++v) {
      if (left_bound[v] && right_bound[v]) continue;
      left_bound[v] = rng.NextBounded(2) == 0;
      right_bound[v] = rng.NextBounded(2) == 0;
    }
    // Small key domains make duplicate join keys; few score levels make
    // wide tie bands.
    const uint64_t domain = 1 + rng.NextBounded(4);
    const uint64_t levels = 1 + rng.NextBounded(trial % 2 == 0 ? 3 : 40);
    const std::vector<ScoredRow> left = RandomSide(
        &rng, width, left_bound, rng.NextBounded(40), domain, levels);
    const std::vector<ScoredRow> right = RandomSide(
        &rng, width, right_bound, rng.NextBounded(40), domain, levels);

    std::vector<ScoredRow> expected;
    for (const ScoredRow& l : left) {
      for (const ScoredRow& r : right) {
        bool match = true;
        for (VarId v : join_vars) {
          match = match && l.bindings[v] == r.bindings[v];
        }
        if (!match) continue;
        ScoredRow merged = l;
        MergeBindingsInto(r, &merged);
        merged.score = l.score + r.score;
        expected.push_back(std::move(merged));
      }
    }
    std::sort(expected.begin(), expected.end(),
              [](const ScoredRow& a, const ScoredRow& b) {
                return RowBefore(a, b);
              });

    ExecStats stats;
    ExecContext ctx(&stats);
    RankJoin join(std::make_unique<VectorIterator>(left),
                  std::make_unique<VectorIterator>(right), join_vars, &ctx);
    const std::vector<ScoredRow> actual = Drain(&join);

    SCOPED_TRACE(::testing::Message()
                 << "trial " << trial << " width " << width << " join vars "
                 << num_join << " rows " << left.size() << "x" << right.size());
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < actual.size(); ++i) {
      ASSERT_EQ(actual[i].bindings, expected[i].bindings) << "rank " << i;
      ASSERT_EQ(actual[i].score, expected[i].score) << "rank " << i;
    }
    EXPECT_EQ(stats.join_results, expected.size());
    EXPECT_EQ(stats.answer_objects, expected.size());
    // A full drain pulls, and probes with, every input row once.
    EXPECT_EQ(stats.join_hash_probes, left.size() + right.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RankJoinDifferentialTest,
                         ::testing::Range(0, 12));

TEST(PullTopKTest, TakesKInOrder) {
  ExecStats stats;
  ExecContext ctx(&stats);
  RankJoin join(
      LeftInput({{1, 0.9}, {2, 0.8}, {3, 0.7}}),
      RightInput({{1, 11, 0.9}, {2, 22, 0.8}, {3, 33, 0.7}}), {0}, &ctx);
  const auto rows = PullTopK(&join, 2, &stats);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_DOUBLE_EQ(rows[0].score, 1.8);
  EXPECT_DOUBLE_EQ(rows[1].score, 1.6);
}

TEST(PullTopKTest, FewerThanKResults) {
  ExecStats stats;
  ExecContext ctx(&stats);
  RankJoin join(LeftInput({{1, 0.9}}), RightInput({{1, 11, 0.9}}), {0},
                &ctx);
  const auto rows = PullTopK(&join, 10, &stats);
  EXPECT_EQ(rows.size(), 1u);
}

}  // namespace
}  // namespace specqp
