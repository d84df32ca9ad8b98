#include "topk/top_k.h"

#include "topk/row_table.h"
#include "util/logging.h"

namespace specqp {

std::vector<ScoredRow> PullTopK(ScoredRowIterator* root, size_t k,
                                ExecStats* stats) {
  SPECQP_CHECK(root != nullptr && stats != nullptr);
  std::vector<ScoredRow> out;
  out.reserve(k);
  BindingSet seen;
  ScoredRow row;
  while (out.size() < k && root->Next(&row)) {
    if (!seen.Insert(row.bindings)) continue;
    out.push_back(row);
  }
  return out;
}

}  // namespace specqp
