#ifndef SPECQP_CORE_BATCH_EXECUTOR_H_
#define SPECQP_CORE_BATCH_EXECUTOR_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/engine.h"
#include "query/query.h"

namespace specqp {

// Counters and phase timings of one batch execution. The shared-scan
// counters are the batch's amortisation ledger: `lists_resolved` lists were
// materialised once for the whole batch (of which `lists_derived` came out
// of `base_scans` shared passes over per-predicate base lists instead of
// per-key builds), and every further request for one of them was a
// `shared_scan_hits` pointer lookup — work the same queries executed
// sequentially would have re-issued against the engine cache per query.
struct BatchStats {
  size_t batch_size = 0;        // queries handed in (parsed ones, for text)
  size_t distinct_queries = 0;  // executed once each; duplicates fan out
  size_t distinct_patterns = 0;  // distinct original pattern keys

  // Shared-scan ledger (see SharedScanCache::Counters).
  uint64_t shared_scan_hits = 0;
  uint64_t shared_scan_misses = 0;
  uint64_t lists_resolved = 0;
  uint64_t lists_derived = 0;
  uint64_t base_scans = 0;

  // Relaxations mined once per distinct pattern (RelaxationExpansionCache
  // size after the batch).
  size_t patterns_expanded = 0;
  // Statistics warmed once for the whole batch (kSpecQp planning wave).
  size_t stats_snapshot_patterns = 0;

  double prepare_ms = 0.0;  // dedup + expansion + shared scans + stats
  double plan_ms = 0.0;     // planning all distinct queries (serial)
  double exec_ms = 0.0;     // wall time of the execution phase
};

// Executes a batch of parsed queries over one engine with cross-query
// amortisation: posting-list scans, statistics, and relaxation expansions
// are resolved once per distinct pattern for the entire batch (shared-scan
// plan, batch-scoped pinning), structurally identical queries execute
// once, and the distinct queries run as independent tasks on the engine's
// thread pool. Every Submit goes through it (Engine::ServeWindow; a
// kImmediate request is a window of one); callers with a pre-assembled
// batch use it directly. Every batch builds its own SharedScanCache and
// RelaxationExpansionCache, scoped (and pinned) to that batch.
//
// Phases:
//   1. Dedup: structurally identical queries collapse onto one execution;
//      duplicates receive copies of its result.
//   2. Prepare: mine each distinct pattern's relaxation expansion once,
//      then pin every posting list the planner will read in the batch's
//      SharedScanCache (resident lists as they are; missing object-bound
//      siblings of one predicate derived from a single shared scan), and
//      warm the statistics catalog once per distinct pattern (kSpecQp).
//   3. Plan: each distinct query goes through the engine's Plan step
//      against the warmed catalog; with the stats resolved in phase 2 this
//      is mostly arithmetic.
//   4. Resolve the execution-wave lists the plans actually need (the
//      relaxation lists of kSpecQp singletons; kTrinit resolved everything
//      in phase 2).
//   5. Execute: one task per distinct query runs the engine's Run step
//      against the shared-scan cache under its stop probe, into its own
//      response slot. A batch of one distinct query runs its task on the
//      calling thread with the engine pool (a partitioned tree or a plan
//      race); a larger batch runs its tasks concurrently on the pool, each
//      one serial tree (cross-query parallelism).
//
// Determinism: every per-query result is bit-identical to executing the
// query alone at any thread count — plans come from the same memoised
// statistics, shared/derived posting lists are bit-identical to per-query
// builds, and serial trees equal partitioned (or raced) ones by the
// operators' total-ordering invariant.
class BatchExecutor {
 public:
  explicit BatchExecutor(Engine* engine);

  BatchExecutor(const BatchExecutor&) = delete;
  BatchExecutor& operator=(const BatchExecutor&) = delete;

  // One response per query, in order, each with its plan, diagnostics
  // (kSpecQp), rows, and ExecStats; status is always Ok.
  //
  // `interrupts` (empty, or one slot per query; entries may be null)
  // carries each query's cooperative stop signal — the window step passes
  // them. A distinct execution polls an interrupt only when every slot of
  // its duplicate group shares that same interrupt — a group with an
  // uninterruptible (or differently-interruptible) rider runs to
  // completion, and the stopped riders' owners translate their own
  // interrupt state into terminal statuses afterwards. When every slot of
  // the batch shares one interrupt, its stop probe also covers phases 2-4.
  // A slot whose execution aborted returns with whatever rows were not yet
  // produced missing; callers gate on the interrupt before using the rows.
  std::vector<QueryResponse> Execute(
      std::span<const Query> queries, size_t k, Strategy strategy,
      BatchStats* batch_stats,
      std::span<const ExecInterrupt* const> interrupts = {});

  // Per slot of the last Execute, the plan that produced its rows (the
  // runner-up after a won race, the re-ordered plan after a re-plan).
  const std::vector<QueryPlan>& executed_plans() const {
    return executed_plans_;
  }

 private:
  Engine* engine_;
  std::vector<QueryPlan> executed_plans_;
};

}  // namespace specqp

#endif  // SPECQP_CORE_BATCH_EXECUTOR_H_
