#include "topk/scored_row.h"

#include <algorithm>

#include "util/logging.h"
#include "util/string_util.h"

namespace specqp {

bool RowBefore(const ScoredRow& a, const ScoredRow& b) {
  return ArenaRowBefore(a.score, a.bindings, b.score, b.bindings);
}

bool ArenaRowBefore(double a_score, std::span<const TermId> a,
                    double b_score, std::span<const TermId> b) {
  if (a_score != b_score) return a_score > b_score;
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}

void MergeBindingsInto(const ScoredRow& right, ScoredRow* left) {
  MergeBindingsInto(right.bindings, left->bindings);
}

void MergeBindingsInto(std::span<const TermId> right, std::span<TermId> left) {
  SPECQP_DCHECK(left.size() == right.size());
  for (size_t i = 0; i < right.size(); ++i) {
    if (left[i] == kInvalidTermId) left[i] = right[i];
    // Slots bound on both sides keep `left`'s value. Join operators
    // guarantee agreement on the join variables via key equality before
    // merging; non-join slots may legitimately differ (e.g. a cross
    // product with no join variables), and there the merge target —
    // chosen deterministically by the caller — wins.
  }
}

std::string RowToString(const ScoredRow& row, const Query& query,
                        const Dictionary& dict) {
  std::string out;
  // Rows can carry trailing scratch slots (chain-relaxation variables);
  // only the query's own variables are printable.
  const size_t printable = std::min(row.bindings.size(), query.num_vars());
  for (size_t v = 0; v < printable; ++v) {
    if (row.bindings[v] == kInvalidTermId) continue;
    if (!out.empty()) out += " ";
    std::string_view var = query.var_name(static_cast<VarId>(v));
    std::string_view val = dict.Name(row.bindings[v]);
    out += StrFormat("?%.*s=<%.*s>", static_cast<int>(var.size()), var.data(),
                     static_cast<int>(val.size()), val.data());
  }
  out += StrFormat(" (score %s)", DoubleToString(row.score).c_str());
  return out;
}

}  // namespace specqp
