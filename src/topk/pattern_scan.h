#ifndef SPECQP_TOPK_PATTERN_SCAN_H_
#define SPECQP_TOPK_PATTERN_SCAN_H_

#include <memory>

#include "rdf/posting_list.h"
#include "rdf/triple_pattern.h"
#include "rdf/triple_store.h"
#include "topk/exec_context.h"
#include "topk/operator.h"

namespace specqp {

// Sorted access to one triple pattern: streams the pattern's posting list
// (already sorted by descending normalised score) as rows binding the
// pattern's variables, each score multiplied by `weight` — 1.0 for an
// original pattern, the rule weight w for a relaxation feeding an
// incremental merge (Definition 8).
//
// Under parallel execution the list may be one hash partition of the
// pattern's full posting list (see rdf/posting_partition.h); the scan is
// oblivious to that — partition pieces keep the global normalisation and
// sort order.
class PatternScan final : public ScoredRowIterator {
 public:
  // `width` is the owning query's variable count. `list` must come from the
  // pattern's key. `ctx` may not be null and must outlive the scan.
  PatternScan(const TripleStore* store, std::shared_ptr<const PostingList> list,
              const TriplePattern& pattern, size_t width, double weight,
              ExecContext* ctx);

  PatternScan(const PatternScan&) = delete;
  PatternScan& operator=(const PatternScan&) = delete;

  bool Next(ScoredRow* out) override;
  double UpperBound() const override;
  void Discard() override;
  uint64_t RowsEmitted() const override { return rows_emitted_; }

  const TriplePattern& pattern() const { return pattern_; }
  double weight() const { return weight_; }

 private:
  const TripleStore* store_;
  std::shared_ptr<const PostingList> list_;
  TriplePattern pattern_;
  size_t width_;
  double weight_;
  ExecContext* ctx_;
  ExecStats* stats_;
  uint64_t rows_emitted_ = 0;
  bool fault_reported_ = false;  // store_faults charged once per scan
  // Canonical access path over flat or block-compressed lists. At an
  // undecoded block boundary PeekScore() answers from the block header
  // (bit-equal to the first entry's score), so UpperBound() never forces a
  // decode; blocks the scan never materialises are charged to
  // stats_->blocks_skipped when the iterator is torn down. Next()
  // prefetches the triple of an entry a few positions ahead through
  // LookAhead(), which never decodes, so the block counters are the same
  // with and without the prefetch.
  BlockIterator iter_;
};

}  // namespace specqp

#endif  // SPECQP_TOPK_PATTERN_SCAN_H_
