#ifndef SPECQP_TOPK_OPERATOR_H_
#define SPECQP_TOPK_OPERATOR_H_

#include "topk/scored_row.h"

namespace specqp {

// Pull-based iterator over scored rows in non-increasing score order.
//
// Contract:
//   - Next() fills `out` and returns true, or returns false at exhaustion
//     (and stays false afterwards). It overwrites `out` in place and may
//     exchange its binding buffer for another (IncrementalMerge hands rows
//     out by swap), so callers reuse one row across pulls and buffers
//     circulate instead of being allocated per row.
//   - Scores of successive rows never increase.
//   - UpperBound() is >= the score of every row Next() will still return,
//     and never increases between calls. A negative bound (kExhausted)
//     signals that no further row can arrive.
//
// These invariants are what allow rank joins and the top-k driver to stop
// early without reading entire inputs (section 2.1).
class ScoredRowIterator {
 public:
  virtual ~ScoredRowIterator() = default;

  virtual bool Next(ScoredRow* out) = 0;
  virtual double UpperBound() const = 0;

  // Hint that no further row will be pulled from this iterator. Operators
  // backed by block-compressed posting lists use it to account the
  // remaining blocks as skipped without decoding them; composite operators
  // propagate it to their children. Next() after Discard() must still be
  // safe, and must return false. Purely an accounting/efficiency hint — it
  // never changes which rows earlier calls produced.
  virtual void Discard() {}

  // Rows this iterator has emitted so far (Next() returned true). Leaf and
  // stream operators override it so the adaptive executor can compare a
  // sub-plan's observed cardinality against the planner's estimate at row
  // milestones (core/speculation.h); the default keeps simple combinators
  // exempt. Read only by the thread driving the tree.
  virtual uint64_t RowsEmitted() const { return 0; }

  // Sentinel bound strictly below any real score (scores are >= 0).
  static constexpr double kExhausted = -1.0;
};

}  // namespace specqp

#endif  // SPECQP_TOPK_OPERATOR_H_
