#include "core/planner.h"

#include "util/logging.h"

namespace specqp {

Planner::Planner(ExpectedScoreEstimator* estimator,
                 const RelaxationIndex* rules)
    : estimator_(estimator), rules_(rules) {
  SPECQP_CHECK(estimator_ != nullptr && rules_ != nullptr);
}

QueryPlan Planner::Plan(const Query& query, size_t k,
                        PlanDiagnostics* diagnostics) {
  SPECQP_CHECK(k >= 1);
  const size_t n = query.num_patterns();
  QueryPlan plan;

  const ExpectedScoreEstimator::Estimate original =
      estimator_->EstimateQuery(query);
  const double eq_k = original.ExpectedAtRank(k);

  if (diagnostics != nullptr) {
    diagnostics->cardinality_estimate = original.cardinality;
    diagnostics->eq_k = eq_k;
    diagnostics->decisions.clear();
  }

  for (size_t i = 0; i < n; ++i) {
    PatternDecision decision;
    decision.pattern_index = i;

    // Only the top-weighted relaxation needs checking (section 3.2.1);
    // simple rules and chain rules compete on weight, since either kind's
    // best possible contribution equals its weight.
    const PatternKey key = query.pattern(i).Key();
    const RelaxationRule* top = rules_->TopRule(key);
    const ChainRelaxationRule* top_chain = rules_->TopChainRule(key);
    if (top == nullptr && top_chain == nullptr) {
      // No relaxations exist: nothing to speculate about.
      decision.has_relaxations = false;
      decision.relax = false;
      plan.join_group.push_back(i);
      if (diagnostics != nullptr) diagnostics->decisions.push_back(decision);
      continue;
    }
    decision.has_relaxations = true;
    const bool use_chain =
        top_chain != nullptr &&
        (top == nullptr || top_chain->weight > top->weight);

    // Q' = Q with q_i replaced by its top-weighted relaxation; the relaxed
    // position's distribution is discounted by the rule weight. A chain
    // rule replaces q_i by its two hops, each carrying w/2 (their sum —
    // the chain's contribution — then tops out at w).
    Query relaxed = query;
    std::vector<double> weights(n, 1.0);
    if (use_chain) {
      const VarId fresh = relaxed.GetOrAddVariable("__chain_z");
      auto chain = ApplyChainRule(query.pattern(i), *top_chain, fresh);
      SPECQP_CHECK(chain.ok()) << chain.status().ToString();
      relaxed.ReplacePattern(i, chain->hop1);
      relaxed.AddPattern(chain->hop2);
      weights[i] = top_chain->weight / 2.0;
      weights.push_back(top_chain->weight / 2.0);
    } else {
      auto relaxed_pattern = ApplyRule(query.pattern(i), *top);
      SPECQP_CHECK(relaxed_pattern.ok())
          << relaxed_pattern.status().ToString();
      relaxed.ReplacePattern(i, relaxed_pattern.value());
      weights[i] = top->weight;
    }

    const ExpectedScoreEstimator::Estimate relaxed_estimate =
        estimator_->EstimateQuery(relaxed, weights);
    decision.eq_prime_top = relaxed_estimate.ExpectedAtRank(1);

    decision.relax = decision.eq_prime_top > eq_k;
    const auto confidence = ExpectedScoreEstimator::ComputeConfidence(
        original, decision.eq_prime_top, eq_k);
    decision.confidence = confidence.Confidence();
    decision.bucket_disagreement = confidence.bucket_disagreement;
    if (decision.relax) {
      plan.singletons.push_back(i);
    } else {
      plan.join_group.push_back(i);
    }
    if (diagnostics != nullptr) diagnostics->decisions.push_back(decision);
  }

  if (diagnostics != nullptr) {
    // Plan-level confidence: the least confident contested decision. The
    // runner-up candidate flips exactly that decision — the single
    // coin-flip the race hedges against.
    diagnostics->plan_confidence = 1.0;
    diagnostics->least_confident_pattern = -1;
    diagnostics->has_runner_up = false;
    for (const PatternDecision& decision : diagnostics->decisions) {
      if (!decision.has_relaxations) continue;
      if (decision.confidence < diagnostics->plan_confidence ||
          diagnostics->least_confident_pattern < 0) {
        diagnostics->plan_confidence = decision.confidence;
        diagnostics->least_confident_pattern =
            static_cast<int>(decision.pattern_index);
      }
    }
    if (diagnostics->least_confident_pattern >= 0) {
      const auto flipped = static_cast<size_t>(
          diagnostics->least_confident_pattern);
      QueryPlan runner_up;
      for (const PatternDecision& decision : diagnostics->decisions) {
        const bool relax = decision.pattern_index == flipped
                               ? !decision.relax
                               : decision.relax;
        if (relax) {
          runner_up.singletons.push_back(decision.pattern_index);
        } else {
          runner_up.join_group.push_back(decision.pattern_index);
        }
      }
      diagnostics->has_runner_up = true;
      diagnostics->runner_up = std::move(runner_up);
    }
  }
  return plan;
}

}  // namespace specqp
