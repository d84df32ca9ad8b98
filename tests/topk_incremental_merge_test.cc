#include "topk/incremental_merge.h"

#include <algorithm>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "test_util.h"

namespace specqp {
namespace {

using specqp::testing::Drain;
using specqp::testing::Row1;
using specqp::testing::VectorIterator;

std::unique_ptr<VectorIterator> MakeInput(
    const std::vector<std::pair<TermId, double>>& rows) {
  std::vector<ScoredRow> v;
  for (const auto& [value, score] : rows) v.push_back(Row1(1, value, score));
  return std::make_unique<VectorIterator>(std::move(v));
}

TEST(IncrementalMergeTest, MergesTwoStreamsInOrder) {
  ExecStats stats;
  ExecContext ctx(&stats);
  std::vector<std::unique_ptr<ScoredRowIterator>> inputs;
  inputs.push_back(MakeInput({{1, 0.9}, {2, 0.5}, {3, 0.1}}));
  inputs.push_back(MakeInput({{4, 0.8}, {5, 0.4}}));
  IncrementalMerge merge(std::move(inputs), &ctx);
  const auto rows = Drain(&merge);
  ASSERT_EQ(rows.size(), 5u);
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LE(rows[i].score, rows[i - 1].score);
  }
  EXPECT_EQ(rows[0].bindings[0], 1u);
  EXPECT_EQ(rows[1].bindings[0], 4u);
}

TEST(IncrementalMergeTest, DeduplicatesKeepingMaxDerivation) {
  // The same binding arrives from two lists; the higher-scored (earlier)
  // one must win (Definition 8).
  ExecStats stats;
  ExecContext ctx(&stats);
  std::vector<std::unique_ptr<ScoredRowIterator>> inputs;
  inputs.push_back(MakeInput({{7, 0.9}, {8, 0.2}}));
  inputs.push_back(MakeInput({{7, 0.6}, {9, 0.5}}));
  IncrementalMerge merge(std::move(inputs), &ctx);
  const auto rows = Drain(&merge);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].bindings[0], 7u);
  EXPECT_DOUBLE_EQ(rows[0].score, 0.9);
  EXPECT_EQ(rows[1].bindings[0], 9u);
  EXPECT_EQ(rows[2].bindings[0], 8u);
  EXPECT_EQ(stats.merge_duplicates, 1u);
  EXPECT_EQ(stats.merge_rows, 3u);
}

TEST(IncrementalMergeTest, SingleInputPassThrough) {
  ExecStats stats;
  ExecContext ctx(&stats);
  std::vector<std::unique_ptr<ScoredRowIterator>> inputs;
  inputs.push_back(MakeInput({{1, 0.9}, {2, 0.5}}));
  IncrementalMerge merge(std::move(inputs), &ctx);
  const auto rows = Drain(&merge);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_DOUBLE_EQ(rows[0].score, 0.9);
}

TEST(IncrementalMergeTest, EmptyInputsYieldNothing) {
  ExecStats stats;
  ExecContext ctx(&stats);
  std::vector<std::unique_ptr<ScoredRowIterator>> inputs;
  inputs.push_back(MakeInput({}));
  inputs.push_back(MakeInput({}));
  IncrementalMerge merge(std::move(inputs), &ctx);
  ScoredRow row;
  EXPECT_FALSE(merge.Next(&row));
  EXPECT_FALSE(merge.Next(&row));  // stays exhausted
}

TEST(IncrementalMergeTest, MixedEmptyAndNonEmpty) {
  ExecStats stats;
  ExecContext ctx(&stats);
  std::vector<std::unique_ptr<ScoredRowIterator>> inputs;
  inputs.push_back(MakeInput({}));
  inputs.push_back(MakeInput({{3, 0.7}}));
  inputs.push_back(MakeInput({}));
  IncrementalMerge merge(std::move(inputs), &ctx);
  const auto rows = Drain(&merge);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].bindings[0], 3u);
}

TEST(IncrementalMergeTest, UpperBoundIsMaxOfInputBounds) {
  ExecStats stats;
  ExecContext ctx(&stats);
  std::vector<std::unique_ptr<ScoredRowIterator>> inputs;
  inputs.push_back(MakeInput({{1, 0.9}, {2, 0.5}}));
  inputs.push_back(MakeInput({{4, 0.8}}));
  IncrementalMerge merge(std::move(inputs), &ctx);
  EXPECT_DOUBLE_EQ(merge.UpperBound(), 0.9);
  ScoredRow row;
  ASSERT_TRUE(merge.Next(&row));  // 0.9
  EXPECT_DOUBLE_EQ(merge.UpperBound(), 0.8);
  ASSERT_TRUE(merge.Next(&row));  // 0.8
  EXPECT_DOUBLE_EQ(merge.UpperBound(), 0.5);
  ASSERT_TRUE(merge.Next(&row));  // 0.5
  EXPECT_DOUBLE_EQ(merge.UpperBound(), ScoredRowIterator::kExhausted);
}

TEST(IncrementalMergeTest, UpperBoundNeverIncreases) {
  ExecStats stats;
  ExecContext ctx(&stats);
  std::vector<std::unique_ptr<ScoredRowIterator>> inputs;
  inputs.push_back(MakeInput({{1, 0.9}, {2, 0.8}, {3, 0.3}}));
  inputs.push_back(MakeInput({{4, 0.85}, {5, 0.2}}));
  inputs.push_back(MakeInput({{6, 0.6}}));
  IncrementalMerge merge(std::move(inputs), &ctx);
  double prev = merge.UpperBound();
  ScoredRow row;
  while (merge.Next(&row)) {
    EXPECT_LE(row.score, prev + 1e-12);
    const double bound = merge.UpperBound();
    EXPECT_LE(bound, prev + 1e-12);
    prev = bound;
  }
}

TEST(IncrementalMergeTest, EquivalentToSortedUnionWithMaxDedup) {
  // Property: merge output == all rows, deduped by binding keeping max
  // score, sorted descending.
  Rng rng(77);
  for (int trial = 0; trial < 30; ++trial) {
    const size_t num_inputs = 1 + rng.NextBounded(5);
    std::map<TermId, double> expected;  // binding -> max score
    std::vector<std::unique_ptr<ScoredRowIterator>> inputs;
    for (size_t i = 0; i < num_inputs; ++i) {
      const size_t len = rng.NextBounded(12);
      std::vector<std::pair<TermId, double>> rows;
      double score = 1.0;
      for (size_t j = 0; j < len; ++j) {
        score *= rng.NextDouble(0.5, 1.0);
        const TermId value = static_cast<TermId>(rng.NextBounded(10));
        rows.emplace_back(value, score);
        auto it = expected.find(value);
        if (it == expected.end() || it->second < score) {
          expected[value] = score;
        }
      }
      inputs.push_back(MakeInput(rows));
    }
    ExecStats stats;
    ExecContext ctx(&stats);
    IncrementalMerge merge(std::move(inputs), &ctx);
    const auto rows = Drain(&merge);
    ASSERT_EQ(rows.size(), expected.size());
    double prev = 2.0;
    for (const ScoredRow& row : rows) {
      EXPECT_LE(row.score, prev + 1e-12);
      prev = row.score;
      auto it = expected.find(row.bindings[0]);
      ASSERT_NE(it, expected.end());
      EXPECT_DOUBLE_EQ(row.score, it->second);
    }
  }
}

TEST(IncrementalMergeTest, LazyInputsNotPulledUntilNeeded) {
  // A low-bound input should not be pulled while higher inputs dominate.
  // Track pulls through a counting wrapper.
  class CountingIterator : public ScoredRowIterator {
   public:
    CountingIterator(std::unique_ptr<ScoredRowIterator> inner, int* pulls)
        : inner_(std::move(inner)), pulls_(pulls) {}
    bool Next(ScoredRow* out) override {
      ++*pulls_;
      return inner_->Next(out);
    }
    double UpperBound() const override { return inner_->UpperBound(); }

   private:
    std::unique_ptr<ScoredRowIterator> inner_;
    int* pulls_;
  };

  int high_pulls = 0;
  int low_pulls = 0;
  std::vector<std::unique_ptr<ScoredRowIterator>> inputs;
  inputs.push_back(std::make_unique<CountingIterator>(
      MakeInput({{1, 0.9}, {2, 0.8}, {3, 0.7}}), &high_pulls));
  inputs.push_back(std::make_unique<CountingIterator>(
      MakeInput({{4, 0.1}, {5, 0.05}}), &low_pulls));
  ExecStats stats;
  ExecContext ctx(&stats);
  IncrementalMerge merge(std::move(inputs), &ctx);
  ScoredRow row;
  ASSERT_TRUE(merge.Next(&row));
  ASSERT_TRUE(merge.Next(&row));
  // Two emissions from the high stream; the low stream must not have been
  // pulled at all (its bound 0.1 never became the maximum).
  EXPECT_EQ(low_pulls, 0);
}

// --- differential: merge == first-occurrence-deduped k-way merge -----------

class IncrementalMergeDifferentialTest : public ::testing::TestWithParam<int> {
};

TEST_P(IncrementalMergeDifferentialTest, EmitsExactlyTheDedupedKWayMerge) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729 + 11);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t num_inputs = 1 + rng.NextBounded(30);
    const size_t width = 1 + rng.NextBounded(3);
    // Few score levels give equal bounds across inputs; a small value
    // domain gives the same binding from several inputs.
    const uint64_t levels = 1 + rng.NextBounded(trial % 2 == 0 ? 3 : 50);
    const uint64_t domain = 1 + rng.NextBounded(6);

    struct Entry {
      ScoredRow row;
      size_t input;
      size_t position;
    };
    std::vector<Entry> all;
    std::vector<std::unique_ptr<ScoredRowIterator>> inputs;
    for (size_t i = 0; i < num_inputs; ++i) {
      std::vector<ScoredRow> rows;
      const size_t len = rng.NextBounded(16);
      for (size_t j = 0; j < len; ++j) {
        const double level = static_cast<double>(rng.NextBounded(levels));
        ScoredRow row(width, 0.01 + 0.13 * level);
        for (size_t v = 0; v < width; ++v) {
          // Leave some slots unbound, as projected chain rows are.
          if (rng.NextBounded(4) != 0) {
            row.bindings[v] = static_cast<TermId>(rng.NextBounded(domain));
          }
        }
        rows.push_back(std::move(row));
      }
      std::stable_sort(rows.begin(), rows.end(),
                       [](const ScoredRow& a, const ScoredRow& b) {
                         return a.score > b.score;
                       });
      for (size_t j = 0; j < rows.size(); ++j) all.push_back({rows[j], i, j});
      inputs.push_back(std::make_unique<VectorIterator>(std::move(rows)));
    }

    // The k-way merge: highest score first, ties to the lowest input index,
    // each input in its own order. Then keep each binding's first
    // occurrence.
    std::sort(all.begin(), all.end(), [](const Entry& a, const Entry& b) {
      if (a.row.score != b.row.score) return a.row.score > b.row.score;
      if (a.input != b.input) return a.input < b.input;
      return a.position < b.position;
    });
    std::vector<ScoredRow> expected;
    std::set<std::vector<TermId>> seen;
    for (const Entry& e : all) {
      if (seen.insert(e.row.bindings).second) expected.push_back(e.row);
    }

    ExecStats stats;
    ExecContext ctx(&stats);
    IncrementalMerge merge(std::move(inputs), &ctx);
    SCOPED_TRACE(::testing::Message() << "trial " << trial << " inputs "
                                      << num_inputs << " rows " << all.size());
    // UpperBound() is exact: the score of the next row the merge would
    // consume, duplicates included.
    size_t consumed = 0;
    ScoredRow row;
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(merge.UpperBound(), all[consumed].row.score) << "rank " << i;
      ASSERT_TRUE(merge.Next(&row)) << "rank " << i;
      ASSERT_EQ(row.bindings, expected[i].bindings) << "rank " << i;
      ASSERT_EQ(row.score, expected[i].score) << "rank " << i;
      while (all[consumed].row.bindings != row.bindings ||
             all[consumed].row.score != row.score) {
        ++consumed;
      }
      ++consumed;
    }
    EXPECT_EQ(merge.UpperBound(), consumed < all.size()
                                      ? all[consumed].row.score
                                      : ScoredRowIterator::kExhausted);
    EXPECT_FALSE(merge.Next(&row));
    EXPECT_EQ(merge.UpperBound(), ScoredRowIterator::kExhausted);
    EXPECT_EQ(stats.merge_rows, expected.size());
    EXPECT_EQ(stats.merge_duplicates, all.size() - expected.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalMergeDifferentialTest,
                         ::testing::Range(0, 12));

TEST(IncrementalMergeDeathTest, NoInputsAborts) {
  ExecStats stats;
  ExecContext ctx(&stats);
  std::vector<std::unique_ptr<ScoredRowIterator>> inputs;
  EXPECT_DEATH(IncrementalMerge(std::move(inputs), &ctx), "empty");
}

}  // namespace
}  // namespace specqp
