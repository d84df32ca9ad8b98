#ifndef SPECQP_CORE_PLAN_EXECUTOR_H_
#define SPECQP_CORE_PLAN_EXECUTOR_H_

#include <memory>

#include "core/query_plan.h"
#include "query/query.h"
#include "rdf/posting_list.h"
#include "rdf/triple_store.h"
#include "relax/relaxation_index.h"
#include "topk/exec_context.h"
#include "topk/operator.h"

namespace specqp {

// Turns a query plan into an operator tree (section 3.2.2):
//
//   1. join-group patterns -> plain PatternScans, combined left-deep with
//      RankJoins (no relaxations),
//   2. each singleton -> an IncrementalMerge over the pattern's scan plus
//      one weighted scan per relaxation rule,
//   3. RankJoins over the join-group result and the singleton merges.
//
// Within each phase the next input is chosen greedily among the remaining
// ones so that it shares a variable with what is already joined (falling
// back to plan order when nothing connects); this keeps the paper's
// group-then-singletons structure while avoiding gratuitous cross
// products.
//
// Parallel trees: when the execution context carries a thread pool, the
// query has at least two patterns, every pattern binds one common variable
// v (the star centre in the paper's workloads), and the posting lists the
// tree will scan, relaxation and chain-hop lists included, clear a size
// threshold, the executor builds one complete serial tree per hash
// partition of v's bindings (posting lists partitioned via
// rdf/posting_partition.h; lists of patterns not binding v are shared
// unpartitioned across trees) and merges them with a ParallelRankJoin.
// Because v is a join variable of every fold-level join, rows from
// different partitions can never join, so the partitioned union equals the
// serial result — and the merger reassembles the exact serial emission
// order (see parallel_rank_join.h). Each partition tree charges its own
// partition ExecStats, merged after execution.
//
// Storage backends: the executor sees only the TripleStore facade, so it
// runs unchanged over owned, mapped, and sharded (SQPBNDL1, see
// rdf/sharded_store.h) stores. The sharded facade's scatter-gather
// resolves every Match() span in GLOBAL index order — the same index
// space a single-file store would expose — which is what lets the
// partitioning above hash v-bindings without knowing shards exist: a
// partition piece is the same set of rows at any shard count. Do not add
// shard-aware logic here; placement is the store's concern, and the
// bit-identity tests (core_sharded_engine_test) assume this layer stays
// shard-oblivious.
class PlanExecutor {
 public:
  struct Options {
    // Minimum total entries of the posting lists the tree scans before a
    // parallel tree is built (tiny queries are not worth the partitioning
    // pass): every join-group pattern's list and, for each singleton, its
    // own list, every relaxation's and both hops of every chain rule's.
    // Zero = always parallelise when possible. Default matches
    // EngineOptions::parallel_min_rows.
    size_t parallel_min_rows = 1600;
  };

  PlanExecutor(const TripleStore* store, PostingListCache* postings,
               const RelaxationIndex* rules);
  PlanExecutor(const TripleStore* store, PostingListCache* postings,
               const RelaxationIndex* rules, const Options& options);

  PlanExecutor(const PlanExecutor&) = delete;
  PlanExecutor& operator=(const PlanExecutor&) = delete;

  // A leaf of a built serial tree: the operator feeding one pattern's rows
  // into the joins (a bare PatternScan for join-group patterns, the
  // IncrementalMerge for singletons). The adaptive executor
  // (core/speculation.h) polls op->RowsEmitted() at row milestones to
  // compare each leaf's observed cardinality against the planner's
  // estimate. Handles borrow from the returned tree — valid only while the
  // tree is alive.
  struct LeafHandle {
    size_t pattern_index = 0;
    bool singleton = false;
    const ScoredRowIterator* op = nullptr;
  };

  // Builds the tree; `ctx` must outlive the returned iterator.
  std::unique_ptr<ScoredRowIterator> Build(const Query& query,
                                           const QueryPlan& plan,
                                           ExecContext* ctx);

  // As above, additionally surfacing per-pattern leaf handles. Handles are
  // only collected for serial trees (`leaves` is cleared but left empty
  // when the executor chooses the partitioned parallel path — the adaptive
  // checkpoints are a single-threaded-tree feature).
  std::unique_ptr<ScoredRowIterator> Build(const Query& query,
                                           const QueryPlan& plan,
                                           ExecContext* ctx,
                                           std::vector<LeafHandle>* leaves);

  // A variable bound by every pattern of `query` (smallest VarId wins), or
  // kInvalidVarId. Exposed for tests and planner diagnostics.
  static VarId CommonJoinVariable(const Query& query);

 private:
  struct PartitionView;

  // True when the posting lists `plan`'s tree scans hold at least
  // `min_rows` entries in all. Sizes each list from the cache when it is
  // resident (PostingListCache::Peek: no build, no counter moves), from
  // the store's index otherwise, in BuildTree's order, and stops once
  // `min_rows` is reached.
  bool ScansAtLeast(const Query& query, const QueryPlan& plan,
                    size_t min_rows) const;

  std::unique_ptr<ScoredRowIterator> BuildTree(const Query& query,
                                               const QueryPlan& plan,
                                               ExecContext* ctx,
                                               const PartitionView* view,
                                               std::vector<LeafHandle>* leaves);

  const TripleStore* store_;
  PostingListCache* postings_;
  const RelaxationIndex* rules_;
  Options options_;
};

}  // namespace specqp

#endif  // SPECQP_CORE_PLAN_EXECUTOR_H_
