// BindingSet against a std::set reference: every Insert must give the same
// first-occurrence answer, whichever of its two stores (the per-column
// bitmaps or the whole-row table) takes the row.

#include "topk/row_table.h"

#include <cstdint>
#include <iterator>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

namespace specqp {
namespace {

constexpr TermId kLimit = BindingSet::kBitmapIdLimit;

// Ids that repeat often (a small range, so the same term is bound in
// different columns), ids that spread far enough to grow a bitmap several
// times, and ids on both sides of the bitmap limit.
TermId RandomId(Rng* rng) {
  static constexpr TermId kEdges[] = {kLimit - 2, kLimit - 1, kLimit,
                                      kLimit + 1, kInvalidTermId - 1};
  switch (rng->NextBounded(4)) {
    case 0:
    case 1:
      return static_cast<TermId>(rng->NextBounded(40));
    case 2:
      return static_cast<TermId>(rng->NextBounded(200000));
    default:
      return kEdges[rng->NextBounded(std::size(kEdges))];
  }
}

class BindingSetDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(BindingSetDifferentialTest, MatchesSetOfRows) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 3);
  for (size_t width = 1; width <= 4; ++width) {
    BindingSet set;
    std::set<std::vector<TermId>> reference;
    size_t fresh = 0;
    for (int i = 0; i < 6000; ++i) {
      std::vector<TermId> row(width, kInvalidTermId);
      switch (rng.NextBounded(5)) {
        case 0:  // no bound cell
          break;
        case 1:  // several bound cells (one when the row is one cell wide)
          for (TermId& cell : row) {
            if (rng.NextBool(0.7)) cell = RandomId(&rng);
          }
          break;
        default:  // exactly one bound cell
          row[rng.NextBounded(width)] = RandomId(&rng);
          break;
      }
      const bool expected = reference.insert(row).second;
      ASSERT_EQ(set.Insert(row), expected)
          << "width " << width << ", insert " << i;
      fresh += expected ? 1 : 0;
    }
    // Both answers occurred often enough to mean something.
    EXPECT_GT(fresh, 100u) << "width " << width;
    EXPECT_LT(fresh, 5900u) << "width " << width;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BindingSetDifferentialTest,
                         ::testing::Range(0, 8));

TEST(BindingSetTest, SameTermInDifferentColumnsIsDifferentRows) {
  BindingSet set;
  const TermId t = 17;
  EXPECT_TRUE(set.Insert(std::vector<TermId>{t, kInvalidTermId}));
  EXPECT_TRUE(set.Insert(std::vector<TermId>{kInvalidTermId, t}));
  EXPECT_TRUE(set.Insert(std::vector<TermId>{t, t}));
  EXPECT_FALSE(set.Insert(std::vector<TermId>{kInvalidTermId, t}));
  EXPECT_FALSE(set.Insert(std::vector<TermId>{t, kInvalidTermId}));
  EXPECT_FALSE(set.Insert(std::vector<TermId>{t, t}));
}

TEST(BindingSetDeathTest, RowsOfOneSetShareOneWidth) {
  BindingSet set;
  ASSERT_TRUE(set.Insert(std::vector<TermId>{1, kInvalidTermId}));
  EXPECT_DEATH(set.Insert(std::vector<TermId>{1}), "one width");
}

}  // namespace
}  // namespace specqp
