#ifndef SPECQP_TOPK_ROW_TABLE_H_
#define SPECQP_TOPK_ROW_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "rdf/term.h"

namespace specqp {

// Binding rows of one fixed width stored back to back in one growing array
// (the arena), indexed by an open-addressing hash table over a chosen set
// of key columns. Rows whose keys are equal form a chain, newest first.
//
// Keys are hashed and compared in place in the arena, so neither a lookup
// nor an insert builds a key object, and every array grows geometrically:
// storing n rows costs O(log n) allocations and nothing per row. RankJoin
// keeps one table per input, keyed on the join variables; BindingSet keeps
// one keyed on the whole row for the rows its bitmaps do not take. The
// first insert fixes the row width.
class RowTable {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  // Keys on `key_columns`; empty means every row has the same key, so all
  // rows share one chain.
  explicit RowTable(std::vector<VarId> key_columns);

  // Keys on every column of the row.
  static RowTable WholeRow();

  // The newest stored row whose key equals the key columns of `probe`, or
  // kNone.
  uint32_t Find(std::span<const TermId> probe) const;

  // The next older row with the same key as row `r`, or kNone.
  uint32_t NextWithSameKey(uint32_t r) const { return next_[r]; }

  // Stores `row` at the head of its key's chain. Row ids count up from 0
  // in insertion order.
  void Insert(std::span<const TermId> row);

  // Stores `row` only if no stored row has its key; true if it did.
  bool InsertIfAbsent(std::span<const TermId> row);

  std::span<const TermId> Row(uint32_t r) const {
    return {cells_.data() + static_cast<size_t>(r) * width_, width_};
  }
  bool empty() const { return next_.empty(); }

 private:
  struct Slot {
    uint32_t hash = 0;
    uint32_t row = kNone;  // newest row of the chain; kNone = empty slot
  };

  RowTable(std::vector<VarId> key_columns, bool whole_row);

  uint32_t Hash(std::span<const TermId> row) const;
  bool SameKey(std::span<const TermId> probe, uint32_t r) const;
  // Index of the slot holding `row`'s key, or of the empty slot where it
  // belongs.
  size_t Locate(uint32_t hash, std::span<const TermId> row) const;
  uint32_t Append(std::span<const TermId> row, uint32_t next);
  // Grows the index when one more key would fill it past half.
  void ReserveKey();

  std::vector<VarId> key_columns_;
  bool whole_row_;
  size_t width_ = 0;
  std::vector<TermId> cells_;   // size() rows of width_ cells
  std::vector<uint32_t> next_;  // per row: next older row, same key
  std::vector<Slot> slots_;     // power-of-two size, at most half full
  size_t keys_ = 0;             // occupied slots
};

// First-occurrence set of binding rows for duplicate-answer suppression
// (Definition 8: in a score-descending stream the first derivation of an
// answer is its maximum). Used by IncrementalMerge and PullTopK.
//
// A row with exactly one bound cell, the shape every row of a
// single-variable star query has, is recorded as one bit in a bitmap per
// column indexed by TermId. A bitmap grows geometrically up to the largest
// id seen in its column, so it stays about 15 KiB on a graph of ~120k
// terms, where a hash index over the same rows grows to hundreds of KiB
// and competes for cache with everything else the query touches. Every
// other row (several bound cells, none, or an id at or past
// kBitmapIdLimit) goes to a RowTable keyed on the whole row, the only
// exact structure for those. The first insert fixes the row width.
class BindingSet {
 public:
  // Ids at or past this limit are never put in a bitmap, which caps one
  // column's bitmap at 256 KiB.
  static constexpr TermId kBitmapIdLimit = TermId{1} << 21;

  // True the first time `bindings` is inserted.
  bool Insert(std::span<const TermId> bindings);

 private:
  size_t width_ = SIZE_MAX;  // SIZE_MAX until the first insert
  std::vector<std::vector<uint64_t>> bitmaps_;  // [column] bit per TermId
  RowTable table_ = RowTable::WholeRow();
};

}  // namespace specqp

#endif  // SPECQP_TOPK_ROW_TABLE_H_
