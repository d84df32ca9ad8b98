#ifndef SPECQP_TOPK_RANK_JOIN_H_
#define SPECQP_TOPK_RANK_JOIN_H_

#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "topk/exec_context.h"
#include "topk/operator.h"
#include "topk/row_table.h"

namespace specqp {

// Hash Rank Join (HRJN, Ilyas et al. — the paper's [15, 17]): joins two
// score-descending inputs on the given variables and emits join results in
// descending order of the score *sum*, reading as little of each input as
// possible.
//
// State: per input, every row pulled so far in a RowTable (one arena of
// fixed-width rows, hash-indexed in place on the join-variable values,
// equal keys chained) plus the rows' scores; the buffered join results;
// and the classic corner-bound threshold
//
//   T = max( topL + ubR , ubL + topR )
//
// where topX is the highest score seen on input X (its first row) and ubX
// the input's bound on unseen rows. Input selection follows HRJN*: pull
// from the input with the higher remaining upper bound.
//
// Buffered results live in one more arena whose slots are recycled
// through a free list; the output queue is a binary heap of (score, slot)
// pairs in RowBefore order, so growing it never moves bindings. Children
// fill one member scratch row, and an emitted result is copied into the
// caller's row, whose buffer keeps its capacity. After the arenas have
// grown to their high-water marks the join allocates nothing per row.
//
// Emission is *strict*: a buffered result is emitted only once its score
// strictly exceeds T, i.e. once no future join result can tie it. Together
// with the RowBefore-ordered output queue this makes the emitted stream a
// total order — (score descending, bindings ascending) — that is a pure
// function of the input *contents*, independent of pull interleaving. The
// parallel execution layer relies on this: per-partition RankJoin streams
// merge back into exactly the serial emission order (see
// parallel_rank_join.h), so thread count never changes answers. When an
// input side is exhausted its corner term drops out, and once both are
// exhausted the queue drains in RowBefore order.
//
// Cost of determinism: before emitting at score s the join must read each
// input past its band of rows tied at the relevant corner score (the old
// `>= T - eps` rule could emit mid-band, in discovery order). Reads and
// buffering therefore grow with the width of the top score-tie bands —
// degenerating to a full drain only when an entire input is one tied band
// (uniform scores). Hash partitioning shrinks each band by the partition
// factor, so the parallel path also bounds this cost per partition.
class RankJoin final : public ScoredRowIterator {
 public:
  // `join_vars`: variables bound on both sides (may be empty — degenerates
  // to a cross product, still score-ordered).
  RankJoin(std::unique_ptr<ScoredRowIterator> left,
           std::unique_ptr<ScoredRowIterator> right,
           std::vector<VarId> join_vars, ExecContext* ctx);

  RankJoin(const RankJoin&) = delete;
  RankJoin& operator=(const RankJoin&) = delete;

  bool Next(ScoredRow* out) override;
  double UpperBound() const override;
  void Discard() override;
  uint64_t RowsEmitted() const override { return rows_emitted_; }

 private:
  // One input and everything pulled from it so far.
  struct Side {
    Side(std::unique_ptr<ScoredRowIterator> in, const std::vector<VarId>& key)
        : input(std::move(in)), rows(key) {}

    std::unique_ptr<ScoredRowIterator> input;
    RowTable rows;               // keyed on the join variables
    std::vector<double> scores;  // indexed by row id of `rows`
    bool done = false;
    bool seen = false;
    double top = 0.0;  // score of the first row, once seen
  };

  // A buffered join result: its score and its slot in pending_cells_.
  struct Pending {
    double score;
    uint32_t slot;
  };

  double Threshold() const;
  // Pulls one row from the chosen input and joins it against the other
  // side's table; returns false if both inputs are exhausted.
  bool Advance();
  // Buffers the join of `left` and `right` (left wins, MergeBindingsInto).
  void Push(std::span<const TermId> left, std::span<const TermId> right,
            double score);
  // Emits the queue's top into `out`.
  void Pop(ScoredRow* out);
  std::span<TermId> PendingRow(uint32_t slot) {
    return {pending_cells_.data() + static_cast<size_t>(slot) * width_,
            width_};
  }
  std::span<const TermId> PendingRow(uint32_t slot) const {
    return {pending_cells_.data() + static_cast<size_t>(slot) * width_,
            width_};
  }
  // The queue's heap order: true if `a` is emitted after `b`.
  auto HeapOrder() const {
    return [this](const Pending& a, const Pending& b) {
      return ArenaRowBefore(b.score, PendingRow(b.slot), a.score,
                            PendingRow(a.slot));
    };
  }

  static constexpr double kInf = std::numeric_limits<double>::infinity();
  static constexpr double kEps = 1e-9;

  std::vector<VarId> join_vars_;
  Side left_;
  Side right_;
  ExecContext* ctx_;
  ExecStats* stats_;

  ScoredRow scratch_;  // the row being pulled from a child
  size_t width_ = 0;   // row width, fixed by the first row pulled
  bool pull_left_next_ = true;  // tie-breaker for alternating pulls
  uint64_t rows_emitted_ = 0;

  std::vector<TermId> pending_cells_;  // width_ cells per slot
  std::vector<uint32_t> free_slots_;
  std::vector<Pending> queue_;  // binary heap, top = next to emit
};

}  // namespace specqp

#endif  // SPECQP_TOPK_RANK_JOIN_H_
