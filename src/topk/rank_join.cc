#include "topk/rank_join.h"

#include <algorithm>

#include "util/logging.h"

namespace specqp {

RankJoin::RankJoin(std::unique_ptr<ScoredRowIterator> left,
                   std::unique_ptr<ScoredRowIterator> right,
                   std::vector<VarId> join_vars, ExecContext* ctx)
    : join_vars_(std::move(join_vars)),
      left_(std::move(left), join_vars_),
      right_(std::move(right), join_vars_),
      ctx_(ctx),
      stats_(ctx == nullptr ? nullptr : ctx->stats()) {
  SPECQP_CHECK(left_.input != nullptr && right_.input != nullptr &&
               stats_ != nullptr);
  // Nothing is pre-sized: the queue holds 16-byte (score, slot) pairs and
  // every arena grows geometrically, so growth never moves a buffered
  // row's bindings and costs O(log n) allocations over the whole join.
}

double RankJoin::Threshold() const {
  const double ub_l = left_.done ? -kInf : left_.input->UpperBound();
  const double ub_r = right_.done ? -kInf : right_.input->UpperBound();
  // Before any row is seen on a side, its "top" defaults to the side's
  // upper bound (conservative).
  const double top_l = left_.seen ? left_.top : std::max(ub_l, 0.0);
  const double top_r = right_.seen ? right_.top : std::max(ub_r, 0.0);

  // Corner bounds: (seen left) x (unseen right) and (unseen left) x (seen
  // right). A corner with an exhausted unseen side cannot produce results.
  const double corner_lr = right_.done ? -kInf : top_l + ub_r;
  const double corner_rl = left_.done ? -kInf : ub_l + top_r;
  return std::max(corner_lr, corner_rl);
}

bool RankJoin::Advance() {
  // HRJN* pull strategy: take from the input whose unseen rows have the
  // higher bound; alternate on ties.
  const double ub_l = left_.done ? -kInf : left_.input->UpperBound();
  const double ub_r = right_.done ? -kInf : right_.input->UpperBound();
  if (left_.done && right_.done) return false;

  bool pull_left;
  if (left_.done) {
    pull_left = false;
  } else if (right_.done) {
    pull_left = true;
  } else if (ub_l != ub_r) {
    pull_left = ub_l > ub_r;
  } else {
    pull_left = pull_left_next_;
    pull_left_next_ = !pull_left_next_;
  }

  Side& own = pull_left ? left_ : right_;
  Side& other = pull_left ? right_ : left_;
  if (!own.input->Next(&scratch_)) {
    own.done = true;
    // Dead-side pruning: a side that exhausted without producing a single
    // row (its table is empty) can never supply a join partner, so no row
    // the other input still holds can contribute a result. Discarding the
    // other side lets block-backed scans account their remaining blocks as
    // skipped instead of decoding them. Both the trigger (an input's
    // contents) and the effect (suppressing rows that would join against
    // an empty table) are pull-order independent, so emitted answers are
    // unchanged.
    if (!other.done && own.rows.empty()) {
      other.input->Discard();
      other.done = true;
    }
    return true;  // state changed; caller re-evaluates
  }

  if (width_ == 0) width_ = scratch_.bindings.size();
  // Always on: Push() writes width_ cells per result.
  SPECQP_CHECK(scratch_.bindings.size() == width_)
      << "input rows of one join share one width";
  for ([[maybe_unused]] VarId v : join_vars_) {
    SPECQP_DCHECK(scratch_.bindings[v] != kInvalidTermId)
        << "join variable unbound in input row";
  }
  if (!own.seen) {
    own.seen = true;
    own.top = scratch_.score;
  }

  const std::span<const TermId> row = scratch_.bindings;
  ++stats_->join_hash_probes;
  for (uint32_t m = other.rows.Find(row); m != RowTable::kNone;
       m = other.rows.NextWithSameKey(m)) {
    // Key equality guarantees the join variables agree; any remaining
    // overlap is non-join slots, where the LEFT input's binding wins
    // deterministically, independent of which side happened to be probed.
    // With empty join_vars_ every pair matches and this degenerates to the
    // cross product.
    const std::span<const TermId> match = other.rows.Row(m);
    Push(pull_left ? row : match, pull_left ? match : row,
         scratch_.score + other.scores[m]);
  }
  own.rows.Insert(row);
  own.scores.push_back(scratch_.score);
  return true;
}

void RankJoin::Push(std::span<const TermId> left,
                    std::span<const TermId> right, double score) {
  // Without a free slot every slot is queued, so the new one is next.
  uint32_t slot = static_cast<uint32_t>(queue_.size());
  if (free_slots_.empty()) {
    pending_cells_.resize(pending_cells_.size() + width_);
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  const std::span<TermId> merged = PendingRow(slot);
  std::copy(left.begin(), left.end(), merged.begin());
  MergeBindingsInto(right, merged);
  queue_.push_back(Pending{score, slot});
  std::push_heap(queue_.begin(), queue_.end(), HeapOrder());
  ++stats_->join_results;
  ++stats_->answer_objects;
}

void RankJoin::Pop(ScoredRow* out) {
  std::pop_heap(queue_.begin(), queue_.end(), HeapOrder());
  const Pending top = queue_.back();
  queue_.pop_back();
  const std::span<const TermId> row = PendingRow(top.slot);
  out->bindings.assign(row.begin(), row.end());
  out->score = top.score;
  free_slots_.push_back(top.slot);
  ++rows_emitted_;
}

bool RankJoin::Next(ScoredRow* out) {
  while (true) {
    // Cooperative cancellation/deadline: checked once per pull-or-emit
    // iteration, so an interrupted join stops within one input row even
    // mid-drain. Buffered rows are abandoned — the caller discards partial
    // output on abort anyway.
    if (ctx_->Interrupted()) return false;
    // Strict emission: only emit once no future join result can reach the
    // buffered top's score. Any result formed after this point combines at
    // least one unseen row and is therefore bounded by T, so every row
    // that could tie the top is already in the queue — which pops in
    // RowBefore order. This is what makes the output a deterministic total
    // order instead of a discovery order (required for parallel == serial).
    const double threshold = Threshold();
    if (!queue_.empty() && queue_.front().score > threshold + kEps) {
      Pop(out);
      return true;
    }
    if (!Advance()) {
      // Both inputs exhausted: drain whatever is buffered.
      if (queue_.empty()) return false;
      Pop(out);
      return true;
    }
  }
}

double RankJoin::UpperBound() const {
  const double threshold = Threshold();
  const double buffered = queue_.empty() ? -kInf : queue_.front().score;
  const double bound = std::max(threshold, buffered);
  return (bound == -kInf) ? kExhausted : bound;
}

void RankJoin::Discard() {
  if (!left_.done) {
    left_.input->Discard();
    left_.done = true;
  }
  if (!right_.done) {
    right_.input->Discard();
    right_.done = true;
  }
  // Buffered-but-unemitted results are abandoned so Next() returns false.
  queue_.clear();
  free_slots_.clear();
  pending_cells_.clear();
}

}  // namespace specqp
