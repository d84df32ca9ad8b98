#ifndef SPECQP_CORE_QUERY_PLAN_H_
#define SPECQP_CORE_QUERY_PLAN_H_

#include <cstddef>
#include <string>
#include <vector>

#include "query/query.h"
#include "relax/relaxation.h"

namespace specqp {

// A speculative query plan (section 3.2): a partition of the query's
// pattern indices into
//   - the join group: patterns predicted NOT to need their relaxations,
//     executed as plain rank joins over their sorted match lists, and
//   - singletons: patterns whose relaxations are predicted to contribute to
//     the top-k, each processed through an incremental merge.
//
// The TriniT baseline is the all-singletons plan.
struct QueryPlan {
  std::vector<size_t> join_group;
  std::vector<size_t> singletons;

  size_t num_relaxed() const { return singletons.size(); }

  bool IsSingleton(size_t pattern_index) const;

  // The all-singletons (TriniT, Figure 2) plan for an n-pattern query.
  static QueryPlan TrinitPlan(size_t num_patterns);

  // The all-join-group plan (no relaxations at all).
  static QueryPlan NoRelaxationsPlan(size_t num_patterns);

  // "{q0 q2 | q1*}" — join group first, relaxed singletons starred.
  std::string ToString() const;
};

// Per-pattern record of what PLANGEN compared (for logs, the what-if
// example, and the prediction-accuracy benchmarks).
struct PatternDecision {
  size_t pattern_index = 0;
  bool has_relaxations = false;
  double eq_prime_top = 0.0;  // E_Q'(1): expected best score via top rule
  bool relax = false;         // the prediction
  // How decisively E_Q'(1) and E_Q(k) were separated: the normalised
  // margin |E_Q'(1) - E_Q(k)| / max(E_Q'(1), E_Q(k)) in [0, 1], halved
  // when both values land in the same bucket of the original query's
  // two-bucket model (the comparison is then below the model's
  // resolution). 1.0 for patterns without relaxations — there is nothing
  // to be wrong about.
  double confidence = 1.0;
  bool bucket_disagreement = false;  // compared-below-model-resolution flag
};

struct PlanDiagnostics {
  double cardinality_estimate = 0.0;  // n for the original query
  double eq_k = 0.0;                  // E_Q(k)
  std::vector<PatternDecision> decisions;

  // Plan-level confidence: the minimum per-decision confidence over
  // decisions that had relaxations to speculate about (1.0 when none).
  // When a runner-up exists it is the primary plan with the least
  // confident decision flipped — the candidate a speculative race executes
  // alongside the primary (EngineOptions::speculate_threshold).
  double plan_confidence = 1.0;
  int least_confident_pattern = -1;  // -1 = no contested decision
  bool has_runner_up = false;
  QueryPlan runner_up;
};

}  // namespace specqp

#endif  // SPECQP_CORE_QUERY_PLAN_H_
