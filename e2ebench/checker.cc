#include "checker.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <unordered_set>

#include "util/string_util.h"

namespace specqp::e2e {

bool RowsBitIdentical(const std::vector<ScoredRow>& expected,
                      const std::vector<ScoredRow>& actual, std::string* why) {
  if (expected.size() != actual.size()) {
    if (why != nullptr) {
      *why = StrFormat("%zu rows, expected %zu", actual.size(),
                       expected.size());
    }
    return false;
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    if (expected[i].bindings != actual[i].bindings) {
      if (why != nullptr) *why = StrFormat("row %zu: bindings differ", i);
      return false;
    }
    if (std::bit_cast<uint64_t>(expected[i].score) !=
        std::bit_cast<uint64_t>(actual[i].score)) {
      if (why != nullptr) {
        *why = StrFormat("row %zu: score %.17g, expected %.17g", i,
                         actual[i].score, expected[i].score);
      }
      return false;
    }
  }
  return true;
}

bool ScoresMatchOracle(const ExhaustiveEvaluator::EvalResult& truth, size_t k,
                       const std::vector<ScoredRow>& rows, double rel_tol,
                       std::string* why) {
  const size_t expected = std::min(k, truth.answers.size());
  if (rows.size() != expected) {
    if (why != nullptr) {
      *why = StrFormat("%zu rows, oracle has %zu", rows.size(), expected);
    }
    return false;
  }
  for (size_t i = 0; i < expected; ++i) {
    const double want = truth.answers[i].score;
    const double got = rows[i].score;
    if (!(std::abs(got - want) <= rel_tol * std::max(std::abs(want), 1e-300))) {
      if (why != nullptr) {
        *why = StrFormat("rank %zu: score %.17g, oracle %.17g", i, got, want);
      }
      return false;
    }
  }
  return true;
}

double PrecisionAtK(const ExhaustiveEvaluator::EvalResult& truth, size_t k,
                    const std::vector<ScoredRow>& rows) {
  const size_t denom = std::min(k, truth.answers.size());
  if (denom == 0) return 1.0;
  std::unordered_set<std::vector<TermId>, BindingsHash> top;
  for (size_t i = 0; i < denom; ++i) top.insert(truth.answers[i].bindings);
  size_t hits = 0;
  for (size_t i = 0; i < rows.size() && i < k; ++i) {
    hits += top.count(rows[i].bindings);
  }
  return static_cast<double>(hits) / static_cast<double>(denom);
}

}  // namespace specqp::e2e
