#ifndef SPECQP_CORE_PLANNER_H_
#define SPECQP_CORE_PLANNER_H_

#include "core/estimator.h"
#include "core/query_plan.h"
#include "query/query.h"
#include "relax/relaxation_index.h"

namespace specqp {

// PLANGEN (Algorithm 1): for each triple pattern, speculate whether its
// relaxations can contribute answers to the top-k. The check compares
//
//   E_Q'(1)  — expected best score of the query with this pattern replaced
//              by its *top-weighted* relaxation (sufficient because
//              normalisation caps every relaxation's best contribution at
//              its weight, section 3.2.1), against
//   E_Q(k)   — expected k-th best score of the original query
//              (0 when the original query is not expected to have k
//              answers, so relaxations are then always predicted needed).
//
// Patterns with E_Q'(1) > E_Q(k) become singletons (their relaxations are
// processed via incremental merge); the rest form the join group.
class Planner {
 public:
  Planner(ExpectedScoreEstimator* estimator, const RelaxationIndex* rules);

  Planner(const Planner&) = delete;
  Planner& operator=(const Planner&) = delete;

  // `diagnostics` is optional. When provided it additionally carries the
  // per-decision confidence signal, the plan-level confidence (minimum over
  // contested decisions) and the runner-up plan (primary with the least
  // confident decision flipped) — the inputs of the speculative plan race
  // (core/speculation.h) and of Engine::Explain. Planning reads the
  // statistics of the query's patterns and of each pattern's top
  // relaxation only, so a cold plan builds no other posting list.
  QueryPlan Plan(const Query& query, size_t k,
                 PlanDiagnostics* diagnostics = nullptr);

 private:
  ExpectedScoreEstimator* estimator_;
  const RelaxationIndex* rules_;
};

}  // namespace specqp

#endif  // SPECQP_CORE_PLANNER_H_
