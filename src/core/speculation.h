#ifndef SPECQP_CORE_SPECULATION_H_
#define SPECQP_CORE_SPECULATION_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/estimator.h"
#include "core/plan_executor.h"
#include "core/query_plan.h"
#include "query/query.h"
#include "rdf/triple_store.h"
#include "relax/relaxation_index.h"
#include "topk/exec_context.h"
#include "topk/exec_stats.h"
#include "topk/scored_row.h"

namespace specqp {

// Mid-query adaptivity knobs (EngineOptions::replan_*). Disabled unless the
// divergence factor exceeds 1 — a factor of f means "re-plan once a leaf
// has emitted more than f times its estimated cardinality".
struct AdaptivePolicy {
  double divergence_factor = 0.0;
  // Cardinality checkpoints fire every this many interrupt polls of the
  // root context. Operators poll roughly a small constant number of times
  // per row pulled, so this approximates a row milestone; it is a cadence,
  // not an exact row count.
  uint64_t check_rows = 4096;

  bool enabled() const { return divergence_factor > 1.0; }
};

// Speculative execution on top of the plan executor (docs/ARCHITECTURE.md,
// "Speculative execution & adaptivity"):
//
//   - Race(): when the planner's least-confident decision falls below
//     EngineOptions::speculate_threshold, the primary plan and the
//     runner-up (primary with that one decision flipped) execute
//     concurrently on the execution's pool, each under a private
//     ExecInterrupt (armed with the execution's cancellation flag and
//     deadline) and ExecStats. The first racer to finish with a *usable* result
//     claims the win via an atomic CAS and stops its rival with
//     StopCause::kRaceLost; only the winner's counters reach the caller's
//     ExecStats (the loser feeds the speculation ledger).
//
//     Usability is what keeps answers bit-identical to speculation-off
//     execution: the primary's result is always usable, the runner-up's
//     only when the certificate holds — it produced k rows and its k-th
//     score strictly exceeds CertificateBound() (no answer involving a
//     relaxation of the flipped pattern can score that high, and rows not
//     involving one are produced identically by both plans). A bound of
//     -1.0 means the flipped pattern has no non-empty relaxation lists, so
//     the two plans read the same inputs and any runner-up result is
//     usable as-is.
//
//   - RunAdaptive(): serial execution with cardinality checkpoints. The
//     built tree's leaves expose RowsEmitted(); a checkpoint installed on
//     the ExecContext compares each leaf against its estimate every
//     AdaptivePolicy::check_rows polls and, past the divergence factor,
//     stops the execution, re-orders the plan's fold order by *actual*
//     posting-list sizes (ascending), and restarts on the warm posting
//     memos — at most once per execution. Join order never changes the
//     emitted row order (the rank join's bound logic makes the output a
//     pure function of input contents), so the splice is answer-preserving
//     by construction.
//
// Thread-safety: any number of executions may run through one
// SpeculativeExecutor at once. It keeps no state of its own; executions
// and racers touch only thread-safe engine state (the posting cache, the
// statistics catalog) plus their private contexts.
class SpeculativeExecutor {
 public:
  SpeculativeExecutor(PlanExecutor* executor, const TripleStore* store,
                      const RelaxationIndex* rules,
                      ExpectedScoreEstimator* estimator);

  SpeculativeExecutor(const SpeculativeExecutor&) = delete;
  SpeculativeExecutor& operator=(const SpeculativeExecutor&) = delete;

  // The score above which an answer provably involves no relaxation of
  // `pattern_index`: (n - 1) + (max weight among the pattern's relaxation
  // and chain rules whose relaxed posting lists are non-empty). Returns
  // -1.0 when every relaxation list is empty — the flipped decision is
  // then immaterial and the runner-up's stream is identical to the
  // primary's unconditionally.
  double CertificateBound(const Query& query, size_t pattern_index) const;

  // `plan` re-ordered so each phase folds its smallest actual posting list
  // first (stable: ties keep plan order). The re-plan target. Both this
  // and CertificateBound size lists by the store's match counts: a list
  // holds exactly its key's matches, so none is built just to be measured.
  QueryPlan ReorderByActualSize(const Query& query,
                                const QueryPlan& plan) const;

  // Executes `plan` with mid-query re-planning (see class comment); with a
  // disabled policy, a plain build and pull. `executed_plan` (optional)
  // receives the plan that produced the returned rows; `on_replan`
  // (optional) runs right after a divergence commits to re-planning — the
  // race uses it to claim the win before the restart. Checkpoints only
  // attach when the executor builds a serial tree; a partitioned parallel
  // tree executes unmodified.
  std::vector<ScoredRow> RunAdaptive(
      const Query& query, const QueryPlan& plan, size_t k,
      const AdaptivePolicy& policy, ExecContext* ctx,
      QueryPlan* executed_plan = nullptr,
      const std::function<void()>& on_replan = nullptr);

  // Races `primary` against `runner_up` for the top `k` on ctx's pool
  // (must be non-null). `certificate_bound` comes from CertificateBound()
  // for the flipped pattern. Both racers read through ctx's shared scans
  // and honour the cancellation flag and deadline of ctx's interrupt. The
  // winner's rows are returned and its counters folded into ctx's stats
  // together with the speculation ledger (plans_raced,
  // race_wins_by_runnerup, speculative_work_wasted_rows,
  // race_loser_abort_ms). `executed_plan` (optional) receives the winner's
  // executed plan.
  std::vector<ScoredRow> Race(const Query& query, const QueryPlan& primary,
                              const QueryPlan& runner_up,
                              double certificate_bound, size_t k,
                              const AdaptivePolicy& policy, ExecContext* ctx,
                              QueryPlan* executed_plan);

 private:
  // Estimated rows a leaf will emit: the pattern's (possibly calibrated)
  // match count, plus — for singleton merges — each relaxation list and
  // the smaller hop of each chain.
  double LeafEstimate(const Query& query,
                      const PlanExecutor::LeafHandle& leaf) const;

  PlanExecutor* executor_;
  const TripleStore* store_;
  const RelaxationIndex* rules_;
  ExpectedScoreEstimator* estimator_;
};

}  // namespace specqp

#endif  // SPECQP_CORE_SPECULATION_H_
