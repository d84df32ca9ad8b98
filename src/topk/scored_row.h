#ifndef SPECQP_TOPK_SCORED_ROW_H_
#define SPECQP_TOPK_SCORED_ROW_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "query/query.h"
#include "rdf/dictionary.h"
#include "rdf/term.h"

namespace specqp {

// A (partial) answer flowing through the operator tree: one TermId per
// query variable (kInvalidTermId where unbound) plus the accumulated score.
// Width is fixed per query (num_vars), so merging bindings never resizes.
struct ScoredRow {
  std::vector<TermId> bindings;
  double score = 0.0;

  ScoredRow() = default;
  ScoredRow(size_t width, double score_in)
      : bindings(width, kInvalidTermId), score(score_in) {}
};

// Hash/equality over the binding vector only; used for duplicate-answer
// suppression (Definition 8: an answer's score is the max over its
// derivations, so in score-descending streams the first occurrence wins).
struct BindingsHash {
  size_t operator()(const std::vector<TermId>& b) const {
    uint64_t h = 0xCBF29CE484222325ULL;
    for (TermId t : b) {
      h ^= t;
      h *= 0x100000001B3ULL;
    }
    return static_cast<size_t>(h);
  }
};

// Total order for deterministic tie-breaking: score descending, then
// bindings lexicographically ascending. ArenaRowBefore is the same order
// over rows kept in operator arenas (a separate name, so RowBefore stays
// usable as a comparator argument).
bool RowBefore(const ScoredRow& a, const ScoredRow& b);
bool ArenaRowBefore(double a_score, std::span<const TermId> a,
                    double b_score, std::span<const TermId> b);

// Merges `right`'s bindings into `left` (kInvalidTermId treated as
// "unbound"): unbound slots of `left` take `right`'s value; slots bound on
// both sides keep `left`'s value ("left wins"). Join operators guarantee
// agreement on actual join variables via key equality before merging, so
// left-wins only ever applies to non-join slots — which may legitimately
// conflict, e.g. in a cross product with no join variables. Callers must
// pick the merge target deterministically (RankJoin always lets its left
// input win, regardless of pull order) so answers are a function of the
// inputs alone. Semantics are identical in Debug and Release builds. The
// span form merges rows kept in operator arenas; both forms require equal
// widths.
void MergeBindingsInto(const ScoredRow& right, ScoredRow* left);
void MergeBindingsInto(std::span<const TermId> right, std::span<TermId> left);

// "?s=<Shakira> ?o=<guitar> (score 1.73)" — for examples and debugging.
std::string RowToString(const ScoredRow& row, const Query& query,
                        const Dictionary& dict);

}  // namespace specqp

#endif  // SPECQP_TOPK_SCORED_ROW_H_
