#ifndef SPECQP_E2EBENCH_CHECKER_H_
#define SPECQP_E2EBENCH_CHECKER_H_

#include <cstddef>
#include <string>
#include <vector>

#include "core/exhaustive.h"
#include "topk/scored_row.h"

namespace specqp::e2e {

// Answer checking for the end-to-end benchmark. Every response is compared
// against a serial in-memory kImmediate engine, and TriniT's reference is
// compared against the exhaustive oracle.

// True when `actual` equals `expected` row for row: identical bindings and
// bit-identical scores. On a mismatch `why` (optional) names the first
// difference.
bool RowsBitIdentical(const std::vector<ScoredRow>& expected,
                      const std::vector<ScoredRow>& actual,
                      std::string* why = nullptr);

// True when the score sequence of `rows` equals the oracle's top-k scores
// within `rel_tol` relative error (length must match exactly). TriniT is
// exact top-k, but its scores are sums taken in operator order while the
// oracle sums per pattern, so the last bit may differ.
bool ScoresMatchOracle(const ExhaustiveEvaluator::EvalResult& truth, size_t k,
                       const std::vector<ScoredRow>& rows, double rel_tol,
                       std::string* why = nullptr);

// The paper's Table 2 precision: |rows[:k] ∩ true top-k| / min(k, |true|)
// over answer bindings (1 when the oracle has no answers).
double PrecisionAtK(const ExhaustiveEvaluator::EvalResult& truth, size_t k,
                    const std::vector<ScoredRow>& rows);

}  // namespace specqp::e2e

#endif  // SPECQP_E2EBENCH_CHECKER_H_
