#ifndef SPECQP_TOPK_INCREMENTAL_MERGE_H_
#define SPECQP_TOPK_INCREMENTAL_MERGE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "topk/exec_context.h"
#include "topk/operator.h"
#include "topk/row_table.h"

namespace specqp {

// The Incremental Merge operator of Theobald et al. (the paper's [29], used
// as in TriniT): lazily merges the sorted streams of a triple pattern and
// all of its relaxations (each already discounted by its rule weight via
// PatternScan) into one globally score-descending stream.
//
// The same binding can be produced by several relaxations; Definition 8
// keeps the maximum-score derivation. Because the merged stream is
// descending, the first occurrence is the maximum, so later duplicates are
// suppressed by a BindingSet: one bit per emitted binding when a row binds
// a single variable, as in a star query, and a hash-indexed arena of whole
// rows otherwise.
//
// The next input comes from a max-heap of (bound, input): an input's
// buffered head score once it has been pulled, its UpperBound() before.
// Ties go to the lowest input index. Bounds never increase, so a recorded
// bound is never below the input's current one; the heap re-checks an
// unpulled input's bound lazily when it reaches the top, which keeps the
// choice identical to a scan over every input while making Next()
// O(log inputs) and UpperBound() O(1). An emitted head is handed out by
// swapping buffers with the caller's row, and the input refills the
// caller's old buffer, so no row is allocated once the buffers circulate.
class IncrementalMerge final : public ScoredRowIterator {
 public:
  // At least one input; inputs are polled lazily (an input's first row is
  // only pulled when the merge first needs its head).
  IncrementalMerge(std::vector<std::unique_ptr<ScoredRowIterator>> inputs,
                   ExecContext* ctx);

  IncrementalMerge(const IncrementalMerge&) = delete;
  IncrementalMerge& operator=(const IncrementalMerge&) = delete;

  bool Next(ScoredRow* out) override;
  double UpperBound() const override;
  void Discard() override;
  uint64_t RowsEmitted() const override { return rows_emitted_; }

 private:
  struct Head {
    ScoredRow row;
    bool valid = false;
    bool primed = false;  // has the first Pull happened yet?
  };

  // A heap entry: an input and its bound when the entry was last updated.
  struct Bound {
    double bound;
    uint32_t input;
  };

  // Ensures heads_[i] holds the next row of input i (or is marked invalid).
  void Prime(size_t i);
  // Brings the top entry's bound up to date: re-reads unprimed inputs'
  // bounds at the top until the top's recorded bound is current, and drops
  // inputs that can no longer produce a row. Mutates only the heap, which
  // caches bounds, so UpperBound() may call it.
  void Settle() const;
  // Sets the top entry's bound (removing the entry if it is kExhausted or
  // below) and restores heap order.
  void UpdateTop(double bound) const;

  std::vector<std::unique_ptr<ScoredRowIterator>> inputs_;
  std::vector<Head> heads_;
  mutable std::vector<Bound> heap_;
  BindingSet seen_;
  ExecContext* ctx_;
  ExecStats* stats_;
  uint64_t rows_emitted_ = 0;
};

}  // namespace specqp

#endif  // SPECQP_TOPK_INCREMENTAL_MERGE_H_
