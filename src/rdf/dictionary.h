#ifndef SPECQP_RDF_DICTIONARY_H_
#define SPECQP_RDF_DICTIONARY_H_

#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>

#include "rdf/term.h"
#include "util/result.h"

namespace specqp {

// Bidirectional string <-> TermId mapping. Interning the same string twice
// returns the same id; ids are dense, starting at 0, in insertion order.
//
// Two backends share the same query interface:
//
//  * Owned (default): strings live in a deque so the string_view keys of
//    the reverse index stay valid as the dictionary grows (deque growth
//    never moves existing elements). Intern() of unseen terms is allowed.
//
//  * View (FromView): a frozen, zero-copy dictionary over a mapped
//    SQPSTOR3 file (docs/FORMATS.md). Name() slices the mapped blob with
//    no allocation; Find() binary-searches the file's lexicographic term
//    permutation, so opening costs O(1) — no reverse-index build, no
//    string copies. Intern() of a term that is already present returns
//    its id; interning an unseen term CHECK-fails (views are read-only).
class Dictionary {
 public:
  Dictionary() = default;

  Dictionary(const Dictionary&) = delete;
  Dictionary& operator=(const Dictionary&) = delete;
  Dictionary(Dictionary&&) = default;
  Dictionary& operator=(Dictionary&&) = default;

  // View over mapped memory: term i occupies blob[offsets[i], offsets[i+1])
  // (so `offsets` has size()+1 elements and offsets[0] == 0) and `sorted`
  // lists all term ids in lexicographic term order. The caller guarantees
  // the mapping outlives the dictionary and that the spans were bounds-
  // checked against the mapped file (MmapStore does both).
  static Dictionary FromView(std::span<const uint64_t> offsets,
                             const char* blob, size_t blob_size,
                             std::span<const uint32_t> sorted);

  // Returns the id for `term`, interning it if unseen (owned backend
  // only; a view dictionary CHECK-fails on unseen terms).
  TermId Intern(std::string_view term);

  // Returns the id for `term` or NotFound if never interned.
  [[nodiscard]] Result<TermId> Find(std::string_view term) const;

  // True iff `term` has been interned.
  bool Contains(std::string_view term) const;

  // The string for `id`; id must be < size(). Zero-copy on both backends.
  std::string_view Name(TermId id) const;

  size_t size() const {
    return view_ ? view_offsets_.size() - 1 : terms_.size();
  }
  bool empty() const { return size() == 0; }
  bool is_view() const { return view_; }

 private:
  std::deque<std::string> terms_;
  std::unordered_map<std::string_view, TermId> index_;

  // View backend (non-owning; valid while the mapping is alive).
  bool view_ = false;
  std::span<const uint64_t> view_offsets_;
  const char* view_blob_ = nullptr;
  size_t view_blob_size_ = 0;
  std::span<const uint32_t> view_sorted_;
};

}  // namespace specqp

#endif  // SPECQP_RDF_DICTIONARY_H_
