#ifndef SPECQP_CORE_ESTIMATOR_H_
#define SPECQP_CORE_ESTIMATOR_H_

#include <memory>
#include <vector>

#include "query/query.h"
#include "stats/catalog.h"
#include "stats/distribution.h"
#include "stats/selectivity.h"

namespace specqp {

// The expected score estimator of section 3.1: models the answer-score
// distribution of a whole query as the convolution of the per-pattern score
// distributions, and combines it with a join-cardinality estimate so order
// statistics can place expected scores at ranks.
class ExpectedScoreEstimator {
 public:
  enum class Model {
    // The paper's default: each convolution result is refit to a two-bucket
    // histogram before the next convolution (cheap, approximate).
    kTwoBucket,
    // Ablation: keep the exact (numerically gridded) shape across
    // convolutions — the "multi-bucket histogram" alternative of §4.5.2.
    kExactGrid,
  };

  struct Estimate {
    // Expected number of answers (m12 = m·m'·φ chain). Zero when any
    // pattern is empty.
    double cardinality = 0.0;
    // Distribution of one answer's score; null when cardinality is 0.
    std::shared_ptr<const ScoreDistribution> distribution;

    bool empty() const { return distribution == nullptr; }

    // E(score at rank) via order statistics; 0 when the query is not
    // expected to have that many answers (see order_statistics.h).
    double ExpectedAtRank(uint64_t rank) const;
  };

  ExpectedScoreEstimator(StatisticsCatalog* catalog,
                         SelectivityEstimator* selectivity,
                         Model model = Model::kTwoBucket,
                         double grid_delta = 1.0 / 512.0);

  ExpectedScoreEstimator(const ExpectedScoreEstimator&) = delete;
  ExpectedScoreEstimator& operator=(const ExpectedScoreEstimator&) = delete;

  // Estimates the score distribution of `query` where the matches of
  // pattern i are discounted by weights[i] (1.0 = not relaxed; a relaxed
  // query passes its rule weight at the relaxed position). `weights` must
  // have one entry per pattern, or be empty for all-ones.
  Estimate EstimateQuery(const Query& query,
                         const std::vector<double>& weights = {});

  // Per-decision confidence of one PLANGEN comparison E_Q'(1) vs E_Q(k).
  struct DecisionConfidence {
    // Normalised margin |eq_prime_top - eq_k| / max(eq_prime_top, eq_k),
    // in [0, 1]. 1.0 when both are zero (nothing to separate).
    double margin = 1.0;
    // True when both compared values fall inside the same bucket of the
    // original query's two-bucket score model: the decision then hinges on
    // sub-bucket interpolation the histogram cannot actually resolve.
    bool bucket_disagreement = false;

    // The scalar the speculation threshold is compared against: the margin,
    // halved when the comparison sits below the model's bucket resolution.
    double Confidence() const {
      return bucket_disagreement ? margin * 0.5 : margin;
    }
  };

  // `original` is the estimate of the unrelaxed query whose model bucketing
  // is consulted for the disagreement flag (may be empty).
  static DecisionConfidence ComputeConfidence(const Estimate& original,
                                              double eq_prime_top,
                                              double eq_k);

  // The catalog's estimated match count m for one pattern (after any
  // calibration correction) — the unit of the adaptive executor's
  // divergence checkpoints and of the calibration log.
  double PatternCardinality(const PatternKey& key);

  Model model() const { return model_; }

 private:
  StatisticsCatalog* catalog_;
  SelectivityEstimator* selectivity_;
  Model model_;
  double grid_delta_;
};

}  // namespace specqp

#endif  // SPECQP_CORE_ESTIMATOR_H_
