#include "topk/incremental_merge.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/logging.h"

namespace specqp {

namespace {

// Heap order for the std heap algorithms (greatest first): `a` sits below
// `b` when `b` has the higher bound, or the same bound and the lower input
// index.
constexpr auto kBelow = [](const auto& a, const auto& b) {
  return b.bound > a.bound || (b.bound == a.bound && b.input < a.input);
};

}  // namespace

IncrementalMerge::IncrementalMerge(
    std::vector<std::unique_ptr<ScoredRowIterator>> inputs, ExecContext* ctx)
    : inputs_(std::move(inputs)),
      ctx_(ctx),
      stats_(ctx == nullptr ? nullptr : ctx->stats()) {
  SPECQP_CHECK(!inputs_.empty());
  SPECQP_CHECK(stats_ != nullptr);
  heads_.resize(inputs_.size());
  // Every input enters with an infinite bound, in index order (a valid
  // heap): Settle() reads each real bound the first time the input reaches
  // the top, so no input is touched before the merge is first used.
  heap_.reserve(inputs_.size());
  for (size_t i = 0; i < inputs_.size(); ++i) {
    heap_.push_back(Bound{std::numeric_limits<double>::infinity(),
                          static_cast<uint32_t>(i)});
  }
}

void IncrementalMerge::Prime(size_t i) {
  Head& head = heads_[i];
  head.primed = true;
  head.valid = inputs_[i]->Next(&head.row);
}

void IncrementalMerge::UpdateTop(double bound) const {
  std::pop_heap(heap_.begin(), heap_.end(), kBelow);
  if (bound <= kExhausted) {
    heap_.pop_back();
    return;
  }
  heap_.back().bound = bound;
  std::push_heap(heap_.begin(), heap_.end(), kBelow);
}

void IncrementalMerge::Settle() const {
  while (!heap_.empty()) {
    const Bound& top = heap_.front();
    // A primed input's entry always holds its head's score.
    if (heads_[top.input].primed) return;
    const double now = inputs_[top.input]->UpperBound();
    if (now >= top.bound) return;
    UpdateTop(now);
  }
}

bool IncrementalMerge::Next(ScoredRow* out) {
  while (true) {
    if (ctx_->Interrupted()) return false;  // cancellation / deadline
    // The top input has the highest effective bound: the score of its
    // buffered head if primed, otherwise the input's own upper bound —
    // which lets us defer pulling from low-weight relaxation lists until
    // their cap is actually reached (the "incremental" in incremental
    // merge).
    Settle();
    if (heap_.empty()) return false;
    const uint32_t i = heap_.front().input;
    Head& head = heads_[i];

    if (!head.primed) {
      Prime(i);
      UpdateTop(head.valid ? head.row.score : kExhausted);
      continue;  // bounds changed; re-select
    }

    // The head of input i is a real row whose score dominates every other
    // input's bound: safe to emit in globally sorted order. A first
    // occurrence trades buffers with `out`; either way input i refills its
    // head in place.
    const bool fresh = seen_.Insert(head.row.bindings);
    if (fresh) {
      std::swap(out->bindings, head.row.bindings);
      out->score = head.row.score;
    }
    Prime(i);  // advance that input
    UpdateTop(head.valid ? head.row.score : kExhausted);

    if (!fresh) {
      ++stats_->merge_duplicates;
      continue;  // a lower-scored derivation of an already-emitted answer
    }
    ++stats_->merge_rows;
    ++rows_emitted_;
    return true;
  }
}

void IncrementalMerge::Discard() {
  for (size_t i = 0; i < inputs_.size(); ++i) {
    inputs_[i]->Discard();
    // Mark every head exhausted so Next() reports false without pulling.
    heads_[i].primed = true;
    heads_[i].valid = false;
  }
  heap_.clear();
}

double IncrementalMerge::UpperBound() const {
  Settle();
  return heap_.empty() ? kExhausted : heap_.front().bound;
}

}  // namespace specqp
