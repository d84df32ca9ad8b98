// Ablation A2 (paper footnote 3): the paper plans with *exact* join
// selectivities. This bench swaps in the classical independence-assumption
// estimate (phi = prod 1/max(distinct)) and measures the impact on
// PLANGEN's prediction accuracy and planning time over the XKG workload.

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace specqp::bench {
namespace {

struct ModeResult {
  std::map<size_t, double> accuracy_by_k;
  double mean_plan_ms = 0.0;
};

ModeResult RunMode(const XkgBundle& xkg, SelectivityEstimator::Mode mode,
                   const std::vector<std::map<size_t, std::vector<size_t>>>&
                       required_by_query) {
  EngineOptions options = MakeEngineOptions();
  options.selectivity_mode = mode;
  Engine engine(&xkg.data.store, &xkg.data.rules, options);

  ModeResult result;
  std::map<size_t, size_t> correct;
  double plan_ms_total = 0.0;
  size_t plans = 0;
  for (size_t qi = 0; qi < xkg.workload.size(); ++qi) {
    const Query& query = xkg.workload[qi];
    engine.Warm(query);
    for (size_t k : kTopKs) {
      const QueryRequest request = QueryRequest::FromQuery(query, k);
      WallTimer timer;
      const QueryResponse planned = engine.Explain(request);
      plan_ms_total += timer.ElapsedMillis();
      ++plans;
      std::vector<size_t> predicted = planned.plan.singletons;
      std::sort(predicted.begin(), predicted.end());
      if (predicted == required_by_query[qi].at(k)) ++correct[k];
    }
  }
  for (size_t k : kTopKs) {
    result.accuracy_by_k[k] = static_cast<double>(correct[k]) /
                              static_cast<double>(xkg.workload.size());
  }
  result.mean_plan_ms = plan_ms_total / static_cast<double>(plans);
  return result;
}

Json ModeJson(const char* name, const ModeResult& r) {
  Json j = Json::Object();
  j.Set("mode", name);
  Json& by_k = j.Set("accuracy_by_k", Json::Array());
  for (size_t k : kTopKs) {
    Json& e = by_k.Push(Json::Object());
    e.Set("k", k);
    e.Set("accuracy", r.accuracy_by_k.at(k));
  }
  j.Set("mean_plan_ms", r.mean_plan_ms);
  return j;
}

void Run(Json& out) {
  PrintTitle(
      "Ablation A2: exact join selectivity (paper) vs independence "
      "assumption — prediction accuracy vs planning cost");

  const XkgBundle& xkg = GetXkg();
  ExhaustiveEvaluator oracle(&xkg.data.store, &xkg.data.rules);
  std::vector<std::map<size_t, std::vector<size_t>>> required;
  required.reserve(xkg.workload.size());
  for (const Query& query : xkg.workload) {
    const auto truth = oracle.Evaluate(query);
    std::map<size_t, std::vector<size_t>> by_k;
    for (size_t k : kTopKs) by_k[k] = truth.RequiredRelaxations(k);
    required.push_back(std::move(by_k));
  }

  const ModeResult exact =
      RunMode(xkg, SelectivityEstimator::Mode::kExact, required);
  const ModeResult pairwise =
      RunMode(xkg, SelectivityEstimator::Mode::kPairwiseExact, required);
  const ModeResult independence =
      RunMode(xkg, SelectivityEstimator::Mode::kIndependence, required);

  const std::vector<int> widths = {26, 12, 12, 12, 16};
  PrintRow({"selectivity", "acc k=10", "acc k=15", "acc k=20",
            "plan ms (mean)"},
           widths);
  PrintRule(widths);
  auto row = [&](const char* name, const ModeResult& r) {
    PrintRow({name, StrFormat("%.2f", r.accuracy_by_k.at(10)),
              StrFormat("%.2f", r.accuracy_by_k.at(15)),
              StrFormat("%.2f", r.accuracy_by_k.at(20)),
              StrFormat("%.4f", r.mean_plan_ms)},
             widths);
  };
  row("exact counts (paper)", exact);
  row("pairwise-exact chain", pairwise);
  row("independence", independence);

  Json& modes = out.Set("modes", Json::Array());
  modes.Push(ModeJson("exact", exact));
  modes.Push(ModeJson("pairwise_exact", pairwise));
  modes.Push(ModeJson("independence", independence));

  std::printf(
      "\nShape check: exact selectivities should match or beat the "
      "independence estimate on accuracy — they are what the paper's "
      "cardinality chain (m12 = m·m'·phi) assumes.\n");
}

}  // namespace
}  // namespace specqp::bench

int main(int argc, char** argv) {
  return specqp::bench::BenchMain(argc, argv, "ablation_selectivity",
                                  &specqp::bench::Run);
}
