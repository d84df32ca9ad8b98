#include "topk/row_table.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"

namespace specqp {

RowTable::RowTable(std::vector<VarId> key_columns)
    : RowTable(std::move(key_columns), /*whole_row=*/false) {}

RowTable::RowTable(std::vector<VarId> key_columns, bool whole_row)
    : key_columns_(std::move(key_columns)), whole_row_(whole_row) {}

RowTable RowTable::WholeRow() { return RowTable({}, /*whole_row=*/true); }

uint32_t RowTable::Hash(std::span<const TermId> row) const {
  uint64_t h = 0x9E3779B97F4A7C15ULL;
  auto mix = [&h](TermId t) { h = (h ^ t) * 0xBF58476D1CE4E5B9ULL; };
  if (whole_row_) {
    for (TermId t : row) mix(t);
  } else {
    for (VarId c : key_columns_) {
      SPECQP_DCHECK(c < row.size()) << "key column past the row";
      mix(row[c]);
    }
  }
  // MurmurHash3's 64-bit finaliser: every key bit reaches the low bits the
  // slot index is taken from.
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDULL;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ULL;
  h ^= h >> 33;
  return static_cast<uint32_t>(h);
}

bool RowTable::SameKey(std::span<const TermId> probe, uint32_t r) const {
  const std::span<const TermId> stored = Row(r);
  if (whole_row_) return std::ranges::equal(probe, stored);
  for (VarId c : key_columns_) {
    if (probe[c] != stored[c]) return false;
  }
  return true;
}

size_t RowTable::Locate(uint32_t hash, std::span<const TermId> row) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.row == kNone) return i;
    if (slot.hash == hash && SameKey(row, slot.row)) return i;
  }
}

uint32_t RowTable::Find(std::span<const TermId> probe) const {
  if (keys_ == 0) return kNone;
  return slots_[Locate(Hash(probe), probe)].row;
}

void RowTable::Insert(std::span<const TermId> row) {
  ReserveKey();
  const uint32_t hash = Hash(row);
  Slot& slot = slots_[Locate(hash, row)];
  if (slot.row == kNone) {
    slot.hash = hash;
    ++keys_;
  }
  slot.row = Append(row, slot.row);
}

bool RowTable::InsertIfAbsent(std::span<const TermId> row) {
  ReserveKey();
  const uint32_t hash = Hash(row);
  Slot& slot = slots_[Locate(hash, row)];
  if (slot.row != kNone) return false;
  slot.hash = hash;
  ++keys_;
  slot.row = Append(row, kNone);
  return true;
}

uint32_t RowTable::Append(std::span<const TermId> row, uint32_t next) {
  if (next_.empty()) width_ = row.size();
  SPECQP_CHECK(row.size() == width_) << "rows of one table share one width";
  SPECQP_CHECK(next_.size() < kNone) << "row table full";
  cells_.insert(cells_.end(), row.begin(), row.end());
  next_.push_back(next);
  return static_cast<uint32_t>(next_.size() - 1);
}

void RowTable::ReserveKey() {
  if ((keys_ + 1) * 2 <= slots_.size()) return;
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(std::max<size_t>(16, old.size() * 2), Slot{});
  const size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.row == kNone) continue;
    size_t i = slot.hash & mask;
    while (slots_[i].row != kNone) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

namespace {

// The column of `row`'s only bound cell, or row.size() when it has none or
// more than one.
size_t SoleBoundColumn(std::span<const TermId> row) {
  size_t column = row.size();
  for (size_t c = 0; c < row.size(); ++c) {
    if (row[c] == kInvalidTermId) continue;
    if (column != row.size()) return row.size();
    column = c;
  }
  return column;
}

}  // namespace

bool BindingSet::Insert(std::span<const TermId> bindings) {
  if (width_ == SIZE_MAX) {
    width_ = bindings.size();
    bitmaps_.resize(width_);
  }
  SPECQP_CHECK(bindings.size() == width_) << "rows of one set share one width";
  const size_t column = SoleBoundColumn(bindings);
  if (column == width_ || bindings[column] >= kBitmapIdLimit) {
    return table_.InsertIfAbsent(bindings);
  }
  const TermId id = bindings[column];
  std::vector<uint64_t>& words = bitmaps_[column];
  const size_t word = id / 64;
  if (word >= words.size()) {
    words.resize(std::min(std::max(word + 1, 2 * words.size()),
                          size_t{kBitmapIdLimit / 64}));
  }
  const uint64_t bit = uint64_t{1} << (id % 64);
  if ((words[word] & bit) != 0) return false;
  words[word] |= bit;
  return true;
}

}  // namespace specqp
