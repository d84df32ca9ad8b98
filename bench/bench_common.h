#ifndef SPECQP_BENCH_BENCH_COMMON_H_
#define SPECQP_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/batch_executor.h"
#include "core/engine.h"
#include "core/exhaustive.h"
#include "datasets/evaluation.h"
#include "datasets/twitter_generator.h"
#include "datasets/workload.h"
#include "datasets/xkg_generator.h"
#include "json_writer.h"

namespace specqp::bench {

// --- unified benchmark driver -------------------------------------------------
//
// Every benchmark binary defines one entry point `void Run(Json& out)` that
// prints its human-readable report to stdout AND records the same numbers
// into `out`, then forwards to BenchMain from its main(). BenchMain owns
// the shared CLI:
//
//   <bench> [--json <path>] [--threads N] [--cache-budget-mb N] [--batch]
//           [--scale N] [--shards N] [--admit-batch N]
//
// --threads feeds EngineOptions::num_threads of every engine built through
// MakeEngineOptions()/ApplyBenchConfig() (0 = $SPECQP_THREADS, default
// serial); --cache-budget-mb bounds the posting-list cache; --batch makes
// the workload benches additionally measure BatchExecutor runs over each
// whole workload (per-k `batch` objects in the artifact); --scale grows
// the XKG/Twitter datasets by that factor (entities/tweets; 1 and 10 are
// the supported tiers, see GetXkg/GetTwitter); --admit-batch sets the
// admission window size of Submit-driven engines. All knobs, their
// resolved values, and the cache hit/miss/eviction counters are recorded
// in the artifact so the perf trajectory captures the configuration.
//
// With --json, the artifact is written as a single JSON document:
//   {"bench": <name>, "schema_version": 2, "git_sha": <sha>, ...,
//    "total_seconds": <t>}
// so `fig6`..`fig9`, the tables, and the ablations all emit comparable,
// machine-readable BENCH_*.json files for perf tracking; `git_sha` (from
// $SPECQP_GIT_SHA or $GITHUB_SHA, else "unknown") plus the echoed knobs
// make two artifacts comparable by scripts/compare_bench_json.py.
using BenchFn = void (*)(Json& out);
int BenchMain(int argc, char** argv, const std::string& name, BenchFn run);

// Engine options pre-filled with the CLI execution knobs (--threads,
// --cache-budget-mb) parsed by BenchMain.
void ApplyBenchConfig(EngineOptions* options);
EngineOptions MakeEngineOptions();

// Unified-API execution helpers: one immediate Submit per query (terminal
// status CHECKed — nothing on the pre-parsed path can fail), a
// BatchExecutor per pre-assembled batch. Text parse errors surface as the
// Result's status.
QueryResponse ExecuteQuery(Engine& engine, const Query& query, size_t k,
                           Strategy strategy);
Result<QueryResponse> ExecuteTextQuery(Engine& engine, const std::string& text,
                                       size_t k, Strategy strategy);
std::vector<QueryResponse> ExecuteBatch(Engine& engine,
                                        std::span<const Query> queries,
                                        size_t k, Strategy strategy,
                                        BatchStats* batch_stats = nullptr);

// True when --batch was passed: workload benches also measure batched
// execution.
bool BatchModeRequested();

// The --scale tier (>= 1) applied to the XKG/Twitter dataset generators.
size_t DatasetScale();

// The --shards count (>= 1, default 4) used by sharded-bundle (SQPBNDL1)
// bench variants; recorded as the "shard_count" artifact knob.
size_t BenchShards();

// Serialisation helpers shared by the benchmark binaries.
Json ExecStatsToJson(const ExecStats& stats);
Json QualityMetricsToJson(const QualityMetrics& metrics);
Json CacheStatsToJson(const PostingListCache& cache);
Json BatchStatsToJson(const BatchStats& stats);
// The engine's calibration log as {"patterns": [...], "queries": [...]} —
// archived in bench artifacts so scripts/fit_estimator_correction.py can
// fit correction tables from any run.
Json CalibrationLogToJson(const CalibrationLog& log);

// The k values evaluated throughout the paper (section 4.4).
inline constexpr size_t kTopKs[] = {10, 15, 20};

// A dataset plus its query workload, sized so the whole bench suite runs in
// minutes on a laptop while preserving the paper's workload structure
// (section 4.2: XKG 65 queries of 2-4 patterns with >= 10 relaxations each
// and non-empty originals; Twitter 50 queries of 2-3 patterns with >= 5
// relaxations).
struct XkgBundle {
  XkgDataset data;
  std::vector<Query> workload;  // grouped by pattern count: 2s, 3s, 4s
};

struct TwitterBundle {
  TwitterDataset data;
  std::vector<Query> workload;  // grouped: 2s then 3s
};

// Builds (lazily, once per process) the benchmark datasets. Generation is
// seeded and deterministic, so every bench binary sees identical data.
const XkgBundle& GetXkg();
const TwitterBundle& GetTwitter();

// Per-query cached evaluation shared by the quality tables: the exhaustive
// ground truth is computed once per query and reused across k.
struct QueryEvaluation {
  const Query* query;
  ExhaustiveEvaluator::EvalResult truth;
  std::map<size_t, QualityMetrics> by_k;  // k -> metrics
};

// Runs the quality evaluation for every query in `workload` under every k
// in kTopKs.
std::vector<QueryEvaluation> EvaluateWorkloadQuality(
    Engine& engine, const ExhaustiveEvaluator& oracle,
    const std::vector<Query>& workload);

// --- efficiency figures --------------------------------------------------------

struct EfficiencyRecord {
  size_t num_patterns = 0;
  size_t patterns_relaxed = 0;  // by the Spec-QP plan
  EfficiencyMetrics metrics;
};

// Measures every workload query under one k with the paper's warm-cache
// methodology (5 runs, average of last 3).
std::vector<EfficiencyRecord> MeasureWorkloadEfficiency(
    Engine& engine, const std::vector<Query>& workload, size_t k);

// Prints one figure family (runtimes + memory for k in {10,15,20}),
// grouped either by query size ("No. of triple patterns", Figures 6/8) or
// by the number of patterns the Spec-QP plan relaxed (Figures 7/9).
// Records per-query timings, answer counts, and operator ExecStats plus
// the per-group aggregates into `out`.
enum class GroupBy { kNumPatterns, kPatternsRelaxed };
void RunEfficiencyFigure(const std::string& title, Engine& engine,
                         const std::vector<Query>& workload, GroupBy group_by,
                         Json& out);

// --- table formatting ---------------------------------------------------------

void PrintTitle(const std::string& title);
void PrintSubtitle(const std::string& subtitle);
void PrintRow(const std::vector<std::string>& cells,
              const std::vector<int>& widths);
void PrintRule(const std::vector<int>& widths);

// "0.91 (paper 0.91)" comparison cell.
std::string WithPaper(double measured, const char* paper_value);

}  // namespace specqp::bench

#endif  // SPECQP_BENCH_BENCH_COMMON_H_
