#include "core/estimator.h"

#include <algorithm>
#include <cmath>

#include "stats/convolution.h"
#include "stats/grid_pdf.h"
#include "stats/order_statistics.h"
#include "stats/two_bucket_histogram.h"
#include "util/logging.h"

namespace specqp {

double ExpectedScoreEstimator::Estimate::ExpectedAtRank(uint64_t rank) const {
  if (empty()) return 0.0;
  return ExpectedScoreAtRank(*distribution, cardinality, rank);
}

ExpectedScoreEstimator::ExpectedScoreEstimator(
    StatisticsCatalog* catalog, SelectivityEstimator* selectivity, Model model,
    double grid_delta)
    : catalog_(catalog),
      selectivity_(selectivity),
      model_(model),
      grid_delta_(grid_delta) {
  SPECQP_CHECK(catalog_ != nullptr && selectivity_ != nullptr);
  SPECQP_CHECK(grid_delta_ > 0.0);
}

ExpectedScoreEstimator::DecisionConfidence
ExpectedScoreEstimator::ComputeConfidence(const Estimate& original,
                                          double eq_prime_top, double eq_k) {
  DecisionConfidence confidence;
  const double hi = std::max(eq_prime_top, eq_k);
  if (hi <= 0.0) {
    // Both sides expect nothing: the (non-)relax decision is vacuous.
    confidence.margin = 1.0;
    return confidence;
  }
  confidence.margin = std::abs(eq_prime_top - eq_k) / hi;

  // Bucket disagreement: when the original query's model is the two-bucket
  // histogram and both compared values land in the same bucket, the margin
  // rests on sub-bucket interpolation the model cannot resolve — flag the
  // decision as below model resolution.
  if (!original.empty()) {
    const auto* two_bucket =
        dynamic_cast<const TwoBucketHistogram*>(original.distribution.get());
    if (two_bucket != nullptr) {
      const double sigma = two_bucket->sigma_r();
      confidence.bucket_disagreement =
          (eq_prime_top >= sigma) == (eq_k >= sigma);
    }
  }
  return confidence;
}

double ExpectedScoreEstimator::PatternCardinality(const PatternKey& key) {
  return static_cast<double>(catalog_->GetStats(key).m);
}

ExpectedScoreEstimator::Estimate ExpectedScoreEstimator::EstimateQuery(
    const Query& query, const std::vector<double>& weights) {
  const auto& patterns = query.patterns();
  SPECQP_CHECK(!patterns.empty());
  SPECQP_CHECK(weights.empty() || weights.size() == patterns.size());

  Estimate estimate;

  // Per-pattern two-bucket models, discounted by the relaxation weights.
  std::vector<TwoBucketHistogram> histograms;
  histograms.reserve(patterns.size());
  for (size_t i = 0; i < patterns.size(); ++i) {
    const PatternStats stats = catalog_->GetStats(patterns[i].Key());
    if (stats.empty()) return estimate;  // no answers possible through i
    const double w = weights.empty() ? 1.0 : weights[i];
    histograms.push_back(stats.Histogram().ScaledBy(w));
  }

  estimate.cardinality = selectivity_->QueryCardinality(query);
  if (estimate.cardinality < 1.0) {
    // Round sub-unit estimates of a non-empty pattern chain down to "no
    // answers expected": PLANGEN then treats E_Q(k) as 0.
    estimate.cardinality = 0.0;
    return estimate;
  }

  if (patterns.size() == 1) {
    estimate.distribution =
        std::make_shared<TwoBucketHistogram>(histograms[0]);
    return estimate;
  }

  if (model_ == Model::kTwoBucket) {
    // Convolve pairwise, refitting to the two-bucket model after every step
    // (section 3.1.2: "This again results in a two-bucket histogram").
    TwoBucketHistogram acc = histograms[0];
    for (size_t i = 1; i < histograms.size(); ++i) {
      const PiecewiseLinearPdf exact = ConvolveTwoBucket(acc, histograms[i]);
      acc = RefitTwoBucket(exact, catalog_->head_fraction());
    }
    estimate.distribution = std::make_shared<TwoBucketHistogram>(acc);
  } else {
    GridPdf acc = GridPdf::FromDistribution(histograms[0], grid_delta_);
    for (size_t i = 1; i < histograms.size(); ++i) {
      const GridPdf next = GridPdf::FromDistribution(histograms[i],
                                                     grid_delta_);
      acc = GridPdf::Convolve(acc, next);
    }
    estimate.distribution = std::make_shared<GridPdf>(std::move(acc));
  }
  return estimate;
}

}  // namespace specqp
