#include "topk/pattern_scan.h"

#include "util/logging.h"

namespace specqp {

namespace {

// How many entries ahead of the one it reads the scan prefetches a triple.
// Each entry's triple sits at a random index in the store's triple array,
// and the operators above a scan do enough work per row that a few rows
// cover one miss to memory.
constexpr size_t kPrefetchDistance = 8;

}  // namespace

PatternScan::PatternScan(const TripleStore* store,
                         std::shared_ptr<const PostingList> list,
                         const TriplePattern& pattern, size_t width,
                         double weight, ExecContext* ctx)
    : store_(store),
      list_(std::move(list)),
      pattern_(pattern),
      width_(width),
      weight_(weight),
      ctx_(ctx),
      stats_(ctx == nullptr ? nullptr : ctx->stats()),
      iter_(list_.get(), stats_ == nullptr ? nullptr : &stats_->blocks_decoded,
            stats_ == nullptr ? nullptr : &stats_->blocks_skipped) {
  SPECQP_CHECK(store_ != nullptr && list_ != nullptr && stats_ != nullptr);
  SPECQP_CHECK(weight_ > 0.0 && weight_ <= 1.0);
}

bool PatternScan::Next(ScoredRow* out) {
  while (!iter_.AtEnd()) {
    if (ctx_->Interrupted()) return false;  // cancellation / deadline
    const PostingEntry& entry = iter_.Entry();
    if (iter_.faulted()) {
      // The block source latched a decode fault: `entry` is a placeholder,
      // not data. Record it once, stop the whole execution (the engine
      // maps kStoreFault to IoError), and end this stream.
      if (!fault_reported_) {
        fault_reported_ = true;
        ++stats_->store_faults;
        if (ctx_->interrupt() != nullptr) {
          ctx_->interrupt()->RequestStop(StopCause::kStoreFault);
        }
      }
      return false;
    }
    if (const PostingEntry* ahead = iter_.LookAhead(kPrefetchDistance)) {
      store_->PrefetchTriple(ahead->triple_index);
    }
    iter_.Advance();
    const Triple& t = store_->triple(entry.triple_index);
    if (!ConsistentMatch(pattern_, t)) continue;

    out->bindings.assign(width_, kInvalidTermId);
    if (pattern_.s.is_variable()) out->bindings[pattern_.s.var()] = t.s;
    if (pattern_.p.is_variable()) out->bindings[pattern_.p.var()] = t.p;
    if (pattern_.o.is_variable()) out->bindings[pattern_.o.var()] = t.o;
    out->score = weight_ * entry.score;

    ++stats_->scan_rows;
    ++stats_->answer_objects;
    ++rows_emitted_;
    return true;
  }
  return false;
}

double PatternScan::UpperBound() const {
  if (iter_.AtEnd()) return kExhausted;
  return weight_ * iter_.PeekScore();
}

void PatternScan::Discard() { iter_.SkipAll(); }

}  // namespace specqp
