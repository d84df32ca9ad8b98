#include "bench_common.h"

#include <cstdlib>
#include <cstring>
#include <memory>

#include "util/logging.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace specqp::bench {

namespace {

struct BenchConfig {
  int threads = 0;             // EngineOptions::num_threads semantics
  size_t cache_budget_mb = 0;  // 0 = unbounded
  bool batch = false;          // measure batched runs over whole workloads
  size_t scale = 1;            // XKG/Twitter dataset scale tier (1, 10, ...)
  size_t shards = 4;           // bundle shard count for sharded variants
  size_t admit_batch = 16;     // EngineOptions::admission_max_batch
  double speculate_threshold = 0.0;  // EngineOptions::speculate_threshold
  std::string calibration_path;      // EngineOptions::calibration_path
  std::string fault_plan;            // EngineOptions::fault_plan
  bool degraded_reads = false;       // EngineOptions::degraded_reads
};
BenchConfig g_bench_config;

void PrintUsage(const std::string& name) {
  std::fprintf(stderr,
               "usage: %s [--json <path>] [--threads N] "
               "[--cache-budget-mb N] [--batch] [--scale N] "
               "[--admit-batch N]\n"
               "  --json <path>         write the machine-readable benchmark "
               "artifact to <path>\n"
               "  --threads N           engine execution threads "
               "(0 = $SPECQP_THREADS, default serial)\n"
               "  --cache-budget-mb N   posting-list cache budget "
               "(0 = unbounded)\n"
               "  --batch               additionally measure batched "
               "(BatchExecutor) workload execution\n"
               "  --scale N             dataset scale tier for the XKG/"
               "Twitter workloads (1 = default, 10 = 10x entities/tweets)\n"
               "  --admit-batch N       admission window size for "
               "Submit-driven engines (EngineOptions::admission_max_batch)\n"
               "  --shards N            shard count for sharded-bundle "
               "(SQPBNDL1) bench variants (default 4)\n"
               "  --speculate-threshold X  plan-racing confidence threshold "
               "(0 = off; > 1 forces a race whenever a runner-up exists)\n"
               "  --calibration-path P  estimator correction table fitted by "
               "scripts/fit_estimator_correction.py\n"
               "  --fault-plan P        deterministic fault-injection plan "
               "(seed=N;site=prob[@max], util/fault_injector.h)\n"
               "  --degraded-reads      serve partial answers from the "
               "surviving shards instead of kUnavailable\n",
               name.c_str());
}

// The commit the artifact was produced at, for cross-run comparability:
// $SPECQP_GIT_SHA wins (local runs), then CI's $GITHUB_SHA, else unknown.
std::string ResolveGitSha() {
  for (const char* var : {"SPECQP_GIT_SHA", "GITHUB_SHA"}) {
    const char* value = std::getenv(var);
    if (value != nullptr && value[0] != '\0') return value;
  }
  return "unknown";
}

// Parses a non-negative integer flag value; returns -1 on garbage.
long ParseNonNegative(const char* text) {
  char* end = nullptr;
  const long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || value < 0) return -1;
  return value;
}

// Handles one `--flag N` / `--flag=N` occurrence for a non-negative int
// flag. Returns false (with *error set) when `argv[*i]` is not this flag;
// on a match, advances *i past a space-separated value and writes the
// parsed value through `out`, or prints the error and sets *error.
bool ParseIntFlag(const std::string& bench_name, const char* flag, int argc,
                  char** argv, int* i, long* out, bool* error) {
  const std::string_view arg = argv[*i];
  const std::string eq_form = std::string(flag) + "=";
  const char* text = nullptr;
  if (arg == flag) {
    if (*i + 1 >= argc) {
      std::fprintf(stderr, "%s: %s requires a value\n", bench_name.c_str(),
                   flag);
      *error = true;
      return true;
    }
    text = argv[++*i];
  } else if (StartsWith(arg, eq_form)) {
    text = argv[*i] + eq_form.size();
  } else {
    return false;
  }
  const long value = ParseNonNegative(text);
  if (value < 0) {
    std::fprintf(stderr, "%s: %s requires a non-negative int\n",
                 bench_name.c_str(), flag);
    *error = true;
    return true;
  }
  *out = value;
  return true;
}

}  // namespace

void ApplyBenchConfig(EngineOptions* options) {
  options->num_threads = g_bench_config.threads;
  options->cache_budget_bytes = g_bench_config.cache_budget_mb * 1024 * 1024;
  options->admission_max_batch = g_bench_config.admit_batch;
  options->speculate_threshold = g_bench_config.speculate_threshold;
  options->calibration_path = g_bench_config.calibration_path;
  options->fault_plan = g_bench_config.fault_plan;
  options->degraded_reads = g_bench_config.degraded_reads;
}

size_t DatasetScale() { return g_bench_config.scale; }

size_t BenchShards() { return g_bench_config.shards; }

EngineOptions MakeEngineOptions() {
  EngineOptions options;
  ApplyBenchConfig(&options);
  return options;
}

bool BatchModeRequested() { return g_bench_config.batch; }

QueryResponse ExecuteQuery(Engine& engine, const Query& query, size_t k,
                           Strategy strategy) {
  QueryRequest request = QueryRequest::FromQuery(query, k, strategy);
  request.admission = QueryRequest::Admission::kImmediate;
  QueryResponse response = engine.Submit(std::move(request)).get();
  SPECQP_CHECK(response.status.ok()) << response.status.ToString();
  return response;
}

Result<QueryResponse> ExecuteTextQuery(Engine& engine, const std::string& text,
                                       size_t k, Strategy strategy) {
  QueryRequest request = QueryRequest::FromText(text, k, strategy);
  request.admission = QueryRequest::Admission::kImmediate;
  QueryResponse response = engine.Submit(std::move(request)).get();
  if (!response.status.ok()) return response.status;
  return response;
}

std::vector<QueryResponse> ExecuteBatch(Engine& engine,
                                        std::span<const Query> queries,
                                        size_t k, Strategy strategy,
                                        BatchStats* batch_stats) {
  BatchExecutor batch(&engine);
  return batch.Execute(queries, k, strategy, batch_stats);
}

int BenchMain(int argc, char** argv, const std::string& name, BenchFn run) {
  std::string json_path;
  bool json_requested = false;
  long flag_value = 0;
  bool flag_error = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--json") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: --json requires a path\n", name.c_str());
        PrintUsage(name);
        return 2;
      }
      json_requested = true;
      json_path = argv[++i];
    } else if (StartsWith(arg, "--json=")) {
      json_requested = true;
      json_path = arg.substr(std::strlen("--json="));
    } else if (ParseIntFlag(name, "--threads", argc, argv, &i, &flag_value,
                            &flag_error)) {
      if (flag_error) return 2;
      g_bench_config.threads = static_cast<int>(flag_value);
    } else if (ParseIntFlag(name, "--cache-budget-mb", argc, argv, &i,
                            &flag_value, &flag_error)) {
      if (flag_error) return 2;
      g_bench_config.cache_budget_mb = static_cast<size_t>(flag_value);
    } else if (ParseIntFlag(name, "--scale", argc, argv, &i, &flag_value,
                            &flag_error)) {
      if (flag_error) return 2;
      if (flag_value < 1) {
        std::fprintf(stderr, "%s: --scale requires a value >= 1\n",
                     name.c_str());
        return 2;
      }
      g_bench_config.scale = static_cast<size_t>(flag_value);
    } else if (ParseIntFlag(name, "--shards", argc, argv, &i, &flag_value,
                            &flag_error)) {
      if (flag_error) return 2;
      if (flag_value < 1) {
        std::fprintf(stderr, "%s: --shards requires a value >= 1\n",
                     name.c_str());
        return 2;
      }
      g_bench_config.shards = static_cast<size_t>(flag_value);
    } else if (ParseIntFlag(name, "--admit-batch", argc, argv, &i,
                            &flag_value, &flag_error)) {
      if (flag_error) return 2;
      if (flag_value < 1) {
        std::fprintf(stderr, "%s: --admit-batch requires a value >= 1\n",
                     name.c_str());
        return 2;
      }
      g_bench_config.admit_batch = static_cast<size_t>(flag_value);
    } else if (arg == "--speculate-threshold" ||
               StartsWith(arg, "--speculate-threshold=")) {
      const char* text = nullptr;
      if (arg == "--speculate-threshold") {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "%s: --speculate-threshold requires a value\n",
                       name.c_str());
          return 2;
        }
        text = argv[++i];
      } else {
        text = argv[i] + std::strlen("--speculate-threshold=");
      }
      char* end = nullptr;
      const double value = std::strtod(text, &end);
      if (end == text || *end != '\0' || !(value >= 0.0)) {
        std::fprintf(stderr,
                     "%s: --speculate-threshold requires a non-negative "
                     "number\n",
                     name.c_str());
        return 2;
      }
      g_bench_config.speculate_threshold = value;
    } else if (arg == "--calibration-path") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: --calibration-path requires a path\n",
                     name.c_str());
        return 2;
      }
      g_bench_config.calibration_path = argv[++i];
    } else if (StartsWith(arg, "--calibration-path=")) {
      g_bench_config.calibration_path =
          arg.substr(std::strlen("--calibration-path="));
    } else if (arg == "--fault-plan") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: --fault-plan requires a plan string\n",
                     name.c_str());
        return 2;
      }
      g_bench_config.fault_plan = argv[++i];
    } else if (StartsWith(arg, "--fault-plan=")) {
      g_bench_config.fault_plan = arg.substr(std::strlen("--fault-plan="));
    } else if (arg == "--degraded-reads") {
      g_bench_config.degraded_reads = true;
    } else if (arg == "--batch") {
      g_bench_config.batch = true;
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage(name);
      return 0;
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s'\n", name.c_str(),
                   argv[i]);
      PrintUsage(name);
      return 2;
    }
  }
  if (json_requested && json_path.empty()) {
    std::fprintf(stderr, "%s: --json requires a non-empty path\n",
                 name.c_str());
    PrintUsage(name);
    return 2;
  }
  if (!json_path.empty()) {
    // Fail fast on an unwritable path: the figure benches run for minutes,
    // and discovering a bad path only at write time would discard the run.
    // Probe the .tmp sibling WriteJsonFile uses, so a pre-existing
    // artifact at json_path itself is never touched before success.
    const std::string probe_path = json_path + ".tmp";
    std::FILE* probe = std::fopen(probe_path.c_str(), "w");
    if (probe == nullptr) {
      std::fprintf(stderr, "%s: cannot open %s for writing\n", name.c_str(),
                   probe_path.c_str());
      return 1;
    }
    std::fclose(probe);
    std::remove(probe_path.c_str());
  }

  Json doc = Json::Object();
  doc.Set("bench", name);
  doc.Set("schema_version", 2);
  doc.Set("git_sha", ResolveGitSha());
  doc.Set("threads_requested", g_bench_config.threads);
  doc.Set("threads", ResolveNumThreads(g_bench_config.threads));
  doc.Set("cache_budget_mb", g_bench_config.cache_budget_mb);
  doc.Set("batch_mode", g_bench_config.batch);
  doc.Set("scale", g_bench_config.scale);
  // Shard count of any sharded-bundle variant the bench builds: a bundle's
  // open cost and per-shard counters are shaped by N, so runs only compare
  // at equal shard counts (compare_bench_json.py COMPARABILITY_KEYS).
  doc.Set("shard_count", g_bench_config.shards);
  // Admission knobs of every Submit-driven engine the bench builds; the
  // delay is the EngineOptions default (no CLI override yet).
  doc.Set("admission_max_batch", g_bench_config.admit_batch);
  doc.Set("admission_max_delay_ms", EngineOptions().admission_max_delay_ms);
  // Speculation / calibration knobs: racing changes the work profile and a
  // correction table changes every estimate, so two runs only compare when
  // these agree (scripts/compare_bench_json.py COMPARABILITY_KEYS).
  doc.Set("speculate_threshold", g_bench_config.speculate_threshold);
  doc.Set("calibration_path", g_bench_config.calibration_path);
  // Fault-tolerance knobs: an injection plan perturbs both runtimes and
  // answer counts, and degraded reads change which rows exist at all, so
  // artifacts only compare when these agree — and a run claiming no
  // faults must not report degraded or shed responses
  // (compare_bench_json.py enforces both).
  doc.Set("fault_plan", g_bench_config.fault_plan);
  doc.Set("degraded_reads", g_bench_config.degraded_reads);
  WallTimer timer;
  run(doc);
  doc.Set("total_seconds", timer.ElapsedSeconds());

  if (!json_path.empty()) {
    std::string error;
    if (!WriteJsonFile(json_path, doc, &error)) {
      std::fprintf(stderr, "%s: %s\n", name.c_str(), error.c_str());
      return 1;
    }
    std::fprintf(stderr, "[bench] wrote %s\n", json_path.c_str());
  }
  return 0;
}

Json ExecStatsToJson(const ExecStats& stats) {
  Json j = Json::Object();
  j.Set("answer_objects", stats.answer_objects);
  j.Set("scan_rows", stats.scan_rows);
  j.Set("merge_rows", stats.merge_rows);
  j.Set("merge_duplicates", stats.merge_duplicates);
  j.Set("join_results", stats.join_results);
  j.Set("join_hash_probes", stats.join_hash_probes);
  j.Set("parallel_partitions", stats.parallel_partitions);
  j.Set("parallel_refill_rounds", stats.parallel_refill_rounds);
  j.Set("blocks_decoded", stats.blocks_decoded);
  j.Set("blocks_skipped", stats.blocks_skipped);
  j.Set("plans_raced", stats.plans_raced);
  j.Set("race_wins_by_runnerup", stats.race_wins_by_runnerup);
  j.Set("speculative_work_wasted_rows", stats.speculative_work_wasted_rows);
  j.Set("replans_triggered", stats.replans_triggered);
  j.Set("race_loser_abort_ms", stats.race_loser_abort_ms);
  j.Set("store_faults", stats.store_faults);
  j.Set("shards_failed", stats.shards_failed);
  j.Set("shards_total", stats.shards_total);
  j.Set("plan_ms", stats.plan_ms);
  j.Set("exec_ms", stats.exec_ms);
  return j;
}

Json CalibrationLogToJson(const CalibrationLog& log) {
  Json j = Json::Object();
  Json patterns = Json::Array();
  for (const CalibrationPatternRecord& record : log.PatternRecords()) {
    Json r = Json::Object();
    r.Set("signature", record.signature);
    r.Set("estimated_m", record.estimated_m);
    r.Set("actual_m", record.actual_m);
    patterns.Push(std::move(r));
  }
  Json queries = Json::Array();
  for (const CalibrationQueryRecord& record : log.QueryRecords()) {
    Json r = Json::Object();
    r.Set("estimated_cardinality", record.estimated_cardinality);
    r.Set("observed_join_results", record.observed_join_results);
    r.Set("plan", record.plan);
    r.Set("raced", record.raced);
    r.Set("runner_up_won", record.runner_up_won);
    queries.Push(std::move(r));
  }
  j.Set("patterns", std::move(patterns));
  j.Set("queries", std::move(queries));
  j.Set("dropped", log.dropped());
  j.Set("capacity", log.capacity());
  return j;
}

Json CacheStatsToJson(const PostingListCache& cache) {
  Json j = Json::Object();
  j.Set("hits", cache.hits());
  j.Set("misses", cache.misses());
  j.Set("evictions", cache.evictions());
  j.Set("resident_lists", cache.size());
  j.Set("resident_bytes", cache.bytes());
  j.Set("budget_bytes", cache.budget_bytes());
  return j;
}

Json BatchStatsToJson(const BatchStats& stats) {
  Json j = Json::Object();
  j.Set("batch_size", stats.batch_size);
  j.Set("distinct_queries", stats.distinct_queries);
  j.Set("distinct_patterns", stats.distinct_patterns);
  j.Set("shared_scan_hits", stats.shared_scan_hits);
  j.Set("shared_scan_misses", stats.shared_scan_misses);
  j.Set("lists_resolved", stats.lists_resolved);
  j.Set("lists_derived", stats.lists_derived);
  j.Set("base_scans", stats.base_scans);
  j.Set("patterns_expanded", stats.patterns_expanded);
  j.Set("stats_snapshot_patterns", stats.stats_snapshot_patterns);
  j.Set("prepare_ms", stats.prepare_ms);
  j.Set("plan_ms", stats.plan_ms);
  j.Set("exec_ms", stats.exec_ms);
  return j;
}

Json QualityMetricsToJson(const QualityMetrics& metrics) {
  Json j = Json::Object();
  j.Set("precision", metrics.precision);
  j.Set("score_error_mean", metrics.score_error_mean);
  j.Set("score_error_std", metrics.score_error_std);
  j.Set("score_error_pct", metrics.score_error_pct);
  j.Set("prediction_exact", metrics.prediction_exact);
  j.Set("required_relaxations", metrics.required_relaxations);
  j.Set("predicted_relaxations", metrics.predicted_relaxations);
  j.Set("true_answer_count", metrics.true_answer_count);
  return j;
}

namespace {

XkgBundle* BuildXkg() {
  WallTimer timer;
  auto* bundle = new XkgBundle;
  XkgConfig config;  // defaults: 40k entities, 24 domains, 18 types/domain
  config.scale = g_bench_config.scale;  // --scale tier (recorded in knobs)
  bundle->data = GenerateXkg(config);

  XkgWorkloadConfig workload;
  workload.seed = 71;
  workload.queries_per_size = 22;  // 66 ~ the paper's 65
  workload.min_relaxations = 10;
  bundle->workload = MakeXkgWorkload(bundle->data, workload);
  std::fprintf(stderr, "[bench] XKG ready: %zu triples, %zu queries (%.1fs)\n",
               bundle->data.store.size(), bundle->workload.size(),
               timer.ElapsedSeconds());
  return bundle;
}

TwitterBundle* BuildTwitter() {
  WallTimer timer;
  auto* bundle = new TwitterBundle;
  TwitterConfig config;  // defaults: 120k tweets, 50 topics
  config.scale = g_bench_config.scale;  // --scale tier (recorded in knobs)
  bundle->data = GenerateTwitter(config);

  TwitterWorkloadConfig workload;
  workload.seed = 73;
  workload.queries_per_size = 25;  // 50 queries as in the paper
  workload.min_relaxations = 5;
  bundle->workload = MakeTwitterWorkload(bundle->data, workload);
  std::fprintf(stderr,
               "[bench] Twitter ready: %zu triples, %zu queries (%.1fs)\n",
               bundle->data.store.size(), bundle->workload.size(),
               timer.ElapsedSeconds());
  return bundle;
}

}  // namespace

const XkgBundle& GetXkg() {
  static const XkgBundle* bundle = BuildXkg();
  return *bundle;
}

const TwitterBundle& GetTwitter() {
  static const TwitterBundle* bundle = BuildTwitter();
  return *bundle;
}

std::vector<QueryEvaluation> EvaluateWorkloadQuality(
    Engine& engine, const ExhaustiveEvaluator& oracle,
    const std::vector<Query>& workload) {
  std::vector<QueryEvaluation> evaluations;
  evaluations.reserve(workload.size());
  for (const Query& query : workload) {
    QueryEvaluation eval;
    eval.query = &query;
    eval.truth = oracle.Evaluate(query);
    for (size_t k : kTopKs) {
      eval.by_k[k] = EvaluateQualityWithTruth(engine, eval.truth, query, k);
    }
    evaluations.push_back(std::move(eval));
  }
  return evaluations;
}

std::vector<EfficiencyRecord> MeasureWorkloadEfficiency(
    Engine& engine, const std::vector<Query>& workload, size_t k) {
  std::vector<EfficiencyRecord> records;
  records.reserve(workload.size());
  for (const Query& query : workload) {
    EfficiencyRecord record;
    record.num_patterns = query.num_patterns();
    record.metrics = MeasureEfficiency(engine, query, k);
    record.patterns_relaxed = record.metrics.patterns_relaxed;
    records.push_back(record);
  }
  return records;
}

void RunEfficiencyFigure(const std::string& title, Engine& engine,
                         const std::vector<Query>& workload, GroupBy group_by,
                         Json& out) {
  PrintTitle(title);
  out.Set("title", title);
  out.Set("engine_threads", engine.num_threads());
  out.Set("group_by", group_by == GroupBy::kNumPatterns ? "num_patterns"
                                                        : "patterns_relaxed");
  Json& by_k = out.Set("by_k", Json::Array());
  for (size_t k : kTopKs) {
    const std::vector<EfficiencyRecord> records =
        MeasureWorkloadEfficiency(engine, workload, k);

    // Collect the group keys present.
    std::map<size_t, std::vector<const EfficiencyRecord*>> groups;
    for (const EfficiencyRecord& r : records) {
      const size_t key = group_by == GroupBy::kNumPatterns
                             ? r.num_patterns
                             : r.patterns_relaxed;
      groups[key].push_back(&r);
    }

    Json& k_json = by_k.Push(Json::Object());
    k_json.Set("k", k);
    Json& queries_json = k_json.Set("queries", Json::Array());
    for (size_t i = 0; i < records.size(); ++i) {
      const EfficiencyMetrics& m = records[i].metrics;
      Json& q = queries_json.Push(Json::Object());
      q.Set("query_index", i);
      q.Set("num_patterns", records[i].num_patterns);
      q.Set("patterns_relaxed", records[i].patterns_relaxed);
      q.Set("trinit_ms", m.trinit_ms);
      q.Set("spec_ms", m.spec_ms);
      q.Set("spec_plan_ms", m.spec_plan_ms);
      q.Set("trinit_objects", m.trinit_objects);
      q.Set("spec_objects", m.spec_objects);
      q.Set("trinit_answers", m.trinit_answers);
      q.Set("spec_answers", m.spec_answers);
      q.Set("trinit_stats", ExecStatsToJson(m.trinit_stats));
      q.Set("spec_stats", ExecStatsToJson(m.spec_stats));
    }
    Json& groups_json = k_json.Set("groups", Json::Array());

    PrintSubtitle(StrFormat("k=%zu", k));
    const std::vector<int> widths = {10, 8, 14, 14, 16, 16, 10};
    PrintRow({group_by == GroupBy::kNumPatterns ? "#TP" : "#relaxed",
              "queries", "T runtime ms", "S runtime ms", "T mem objects",
              "S mem objects", "S/T time"},
             widths);
    PrintRule(widths);
    for (const auto& [key, group] : groups) {
      Aggregate t_ms;
      Aggregate s_ms;
      Aggregate t_obj;
      Aggregate s_obj;
      for (const EfficiencyRecord* r : group) {
        t_ms.Add(r->metrics.trinit_ms);
        s_ms.Add(r->metrics.spec_ms);
        t_obj.Add(static_cast<double>(r->metrics.trinit_objects));
        s_obj.Add(static_cast<double>(r->metrics.spec_objects));
      }
      const double ratio =
          t_ms.Mean() > 0.0 ? s_ms.Mean() / t_ms.Mean() : 0.0;
      Json& g = groups_json.Push(Json::Object());
      g.Set("group_key", key);
      g.Set("queries", t_ms.count);
      g.Set("trinit_ms_mean", t_ms.Mean());
      g.Set("spec_ms_mean", s_ms.Mean());
      g.Set("trinit_objects_mean", t_obj.Mean());
      g.Set("spec_objects_mean", s_obj.Mean());
      g.Set("spec_over_trinit_time", ratio);
      PrintRow({StrFormat("%zu", key), StrFormat("%llu",
                    static_cast<unsigned long long>(t_ms.count)),
                StrFormat("%.3f", t_ms.Mean()), StrFormat("%.3f", s_ms.Mean()),
                StrFormat("%.0f", t_obj.Mean()),
                StrFormat("%.0f", s_obj.Mean()), StrFormat("%.2f", ratio)},
               widths);
    }

    if (BatchModeRequested()) {
      // Whole-workload batched sweep (Spec-QP): the same warm engine runs
      // the workload once sequentially and once through the batch
      // executor, so
      // the per-k `batch` object tracks the steady-state amortisation of
      // shared scans and duplicate collapsing across the workload.
      WallTimer seq_timer;
      std::vector<QueryResponse> sequential_results;
      sequential_results.reserve(workload.size());
      for (const Query& query : workload) {
        sequential_results.push_back(
            ExecuteQuery(engine, query, k, Strategy::kSpecQp));
      }
      const double sequential_ms = seq_timer.ElapsedMillis();
      WallTimer batch_timer;
      BatchStats batch_stats;
      const auto batch_results =
          ExecuteBatch(engine, workload, k, Strategy::kSpecQp, &batch_stats);
      const double batched_ms = batch_timer.ElapsedMillis();
      // Bit-equality per query (bindings AND scores), not just counts —
      // this is the determinism contract the artifact certifies.
      bool answers_match = true;
      for (size_t q = 0; answers_match && q < workload.size(); ++q) {
        const auto& seq_rows = sequential_results[q].rows;
        const auto& batch_rows = batch_results[q].rows;
        answers_match = seq_rows.size() == batch_rows.size();
        for (size_t r = 0; answers_match && r < seq_rows.size(); ++r) {
          answers_match = seq_rows[r].bindings == batch_rows[r].bindings &&
                          seq_rows[r].score == batch_rows[r].score;
        }
      }
      Json& batch_json = k_json.Set("batch", BatchStatsToJson(batch_stats));
      batch_json.Set("sequential_ms", sequential_ms);
      batch_json.Set("batched_ms", batched_ms);
      batch_json.Set("answers_match", answers_match);
      std::printf(
          "batch sweep (Spec-QP): %zu queries (%zu distinct) in %.1f ms "
          "batched vs %.1f ms sequential, %llu shared-scan hits, answers "
          "%s\n",
          batch_stats.batch_size, batch_stats.distinct_queries, batched_ms,
          sequential_ms,
          static_cast<unsigned long long>(batch_stats.shared_scan_hits),
          answers_match ? "match" : "MISMATCH");
    }
  }
  out.Set("cache", CacheStatsToJson(engine.postings()));
  std::printf(
      "\nShape check (paper Figs 6-9): S <= T on runtime and memory in "
      "every group; the gap is largest at k=10 / few-patterns-relaxed and "
      "shrinks as k or #relaxed grows; with all patterns relaxed S ~= T "
      "plus planning overhead.\n");
}

void PrintTitle(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

void PrintSubtitle(const std::string& subtitle) {
  std::printf("\n--- %s ---\n", subtitle.c_str());
}

void PrintRow(const std::vector<std::string>& cells,
              const std::vector<int>& widths) {
  std::string line;
  for (size_t i = 0; i < cells.size(); ++i) {
    const int width = i < widths.size() ? widths[i] : 12;
    line += StrFormat("%-*s", width, cells[i].c_str());
  }
  std::printf("%s\n", line.c_str());
}

void PrintRule(const std::vector<int>& widths) {
  int total = 0;
  for (int w : widths) total += w;
  std::printf("%s\n", std::string(static_cast<size_t>(total), '-').c_str());
}

std::string WithPaper(double measured, const char* paper_value) {
  return StrFormat("%s (paper %s)", DoubleToString(measured, 2).c_str(),
                   paper_value);
}

}  // namespace specqp::bench
