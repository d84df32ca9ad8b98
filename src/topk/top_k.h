#ifndef SPECQP_TOPK_TOP_K_H_
#define SPECQP_TOPK_TOP_K_H_

#include <cstddef>
#include <vector>

#include "topk/exec_stats.h"
#include "topk/operator.h"

namespace specqp {

// Pulls up to `k` distinct answers from the root of an operator tree. The
// root emits in descending score order, so the driver simply takes the
// first k distinct binding vectors. The dedup is defensive — operator trees
// built by the plan executor already deduplicate within merges — and uses
// the same BindingSet as the merges (a bitmap for single-binding rows, an
// arena otherwise), which grows geometrically instead of allocating once
// per answer; one row buffer is reused for every pull.
std::vector<ScoredRow> PullTopK(ScoredRowIterator* root, size_t k,
                                ExecStats* stats);

}  // namespace specqp

#endif  // SPECQP_TOPK_TOP_K_H_
