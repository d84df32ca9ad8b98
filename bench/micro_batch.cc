// Batched vs sequential execution of a 50-query template workload:
// repeated patterns, varying constants, and duplicate queries — the
// serving-traffic shape BatchExecutor amortises. The store is saved as a
// v3 file and served memory-mapped, so per-predicate base lists are
// zero-copy block views and the batch's shared scans derive every
// object-bound posting list from one pass instead of one probe-and-sort
// per key.
//
// Reported per strategy: cold wall time (fresh engine, empty caches) and
// warm wall time (same engine again) for both modes, the speedup, the
// shared-scan ledger of the cold batch ("batch") and of the warm one
// ("batch_warm", which finds every list resident and so derives none),
// and an answers_match bit-equality check against sequential execution.
// The acceptance bar from the batch-execution work is speedup_cold >= 1.5
// for Spec-QP at equal thread count.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/batch_executor.h"
#include "core/engine.h"
#include "rdf/store_io.h"
#include "relax/relaxation_index.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace specqp::bench {
namespace {

constexpr size_t kNumSubjects = 48000;
constexpr size_t kNumObjects = 16;
constexpr size_t kNumQueries = 50;
constexpr size_t kTopK = 10;

struct BatchFixture {
  TripleStore built;  // only used to write the store file
  RelaxationIndex rules;
  std::string store_path;
  TermId p0 = kInvalidTermId;
  TermId p1 = kInvalidTermId;
  std::vector<TermId> objects;  // interned names, shared by both predicates
  std::vector<std::string> object_names;
};

BatchFixture& Fixture() {
  static auto* fx = [] {
    auto* f = new BatchFixture;
    Dictionary& dict = f->built.dict();
    f->p0 = dict.Intern("follows_topic");
    f->p1 = dict.Intern("posts_about");
    for (size_t o = 0; o < kNumObjects; ++o) {
      f->object_names.push_back("topic" + std::to_string(o));
      f->objects.push_back(dict.Intern(f->object_names.back()));
    }
    // One triple per predicate per subject; the object assignment is a
    // fixed pseudo-random hash so posting lists are balanced
    // (~kNumSubjects/kNumObjects entries each) and uncorrelated with the
    // power-law scores.
    for (size_t s = 0; s < kNumSubjects; ++s) {
      const TermId subject = dict.Intern("user" + std::to_string(s));
      const double score = 1e6 / static_cast<double>((s % 1000) + 1);
      f->built.AddEncoded(subject, f->p0,
                          f->objects[(s * 2654435761u) % kNumObjects], score);
      f->built.AddEncoded(subject, f->p1,
                          f->objects[(s * 40503u + 7) % kNumObjects], score);
    }
    f->built.Finalize();
    // Relaxations: each topic relaxes to the next two, decaying weights —
    // enough to engage PLANGEN and the incremental merges.
    for (const TermId p : {f->p0, f->p1}) {
      for (size_t o = 0; o < kNumObjects; ++o) {
        for (size_t j = 1; j <= 2; ++j) {
          RelaxationRule rule;
          rule.from = PatternKey{kInvalidTermId, p, f->objects[o]};
          rule.to =
              PatternKey{kInvalidTermId, p, f->objects[(o + j) % kNumObjects]};
          rule.weight = 0.9 / static_cast<double>(j + 1);
          (void)f->rules.AddRule(rule);
        }
      }
    }
    f->store_path = "micro_batch_store.sqp";
    const Status saved = SaveStore(f->built, f->store_path);
    SPECQP_CHECK(saved.ok()) << saved.ToString();
    return f;
  }();
  return *fx;
}

// The template workload: 20 distinct queries (14 two-pattern, 6
// three-pattern star joins with varying topic constants), re-issued
// round-robin up to 50 requests — the Zipf-ish shape of serving traffic,
// where a batch window holds each hot template two or three times.
std::vector<Query> MakeWorkload(const BatchFixture& fx) {
  std::vector<Query> workload;
  auto star = [&](const std::vector<std::pair<TermId, size_t>>& patterns) {
    Query query;
    const VarId s = query.GetOrAddVariable("s");
    for (const auto& [p, o] : patterns) {
      query.AddPattern(TriplePattern(PatternTerm::Var(s),
                                     PatternTerm::Const(p),
                                     PatternTerm::Const(fx.objects[o])));
    }
    query.AddProjection(s);
    return query;
  };
  constexpr size_t kNumDistinct = 20;
  for (size_t i = 0; i < 14; ++i) {
    workload.push_back(star({{fx.p0, i % kNumObjects},
                             {fx.p1, (i * 5 + 3) % kNumObjects}}));
  }
  for (size_t i = 14; i < kNumDistinct; ++i) {
    workload.push_back(star({{fx.p0, i % kNumObjects},
                             {fx.p1, (i * 3) % kNumObjects},
                             {fx.p1, (i * 7 + 5) % kNumObjects}}));
  }
  for (size_t i = 0; workload.size() < kNumQueries; ++i) {
    workload.push_back(workload[i % kNumDistinct]);
  }
  return workload;
}

Engine::Opened OpenEngine(const BatchFixture& fx) {
  auto opened = Engine::OpenFromPath(fx.store_path, &fx.rules,
                                     MakeEngineOptions());
  SPECQP_CHECK(opened.ok()) << opened.status().ToString();
  return std::move(opened).value();
}

bool RowsIdentical(const std::vector<QueryResponse>& a,
                   const std::vector<QueryResponse>& b) {
  if (a.size() != b.size()) return false;
  for (size_t q = 0; q < a.size(); ++q) {
    if (a[q].rows.size() != b[q].rows.size()) return false;
    for (size_t r = 0; r < a[q].rows.size(); ++r) {
      if (a[q].rows[r].bindings != b[q].rows[r].bindings ||
          a[q].rows[r].score != b[q].rows[r].score) {
        return false;
      }
    }
  }
  return true;
}

void Run(Json& out) {
  PrintTitle("Batched vs sequential query execution (50-query template "
             "workload)");
  BatchFixture& fx = Fixture();
  const std::vector<Query> workload = MakeWorkload(fx);

  Json& config = out.Set("config", Json::Object());
  config.Set("triples", fx.built.size());
  config.Set("queries", workload.size());
  config.Set("objects_per_predicate", kNumObjects);
  config.Set("k", kTopK);
  config.Set("store", "v3 mmap");

  const std::vector<int> widths = {10, 18, 18, 10, 18, 10};
  PrintRow({"strategy", "sequential ms", "batched ms", "speedup",
            "shared hits", "match"},
           widths);
  PrintRule(widths);

  Json& runs = out.Set("runs", Json::Array());
  double headline_speedup = 0.0;
  bool all_match = true;
  for (const Strategy strategy : {Strategy::kSpecQp, Strategy::kTrinit}) {
    // Cold: fresh engines, empty caches — the serving scenario where the
    // batch amortises scan building, statistics, and duplicate queries.
    Engine::Opened sequential_engine = OpenEngine(fx);
    WallTimer seq_timer;
    std::vector<QueryResponse> sequential_results;
    sequential_results.reserve(workload.size());
    for (const Query& query : workload) {
      sequential_results.push_back(
          ExecuteQuery(*sequential_engine.engine, query, kTopK, strategy));
    }
    const double sequential_cold_ms = seq_timer.ElapsedMillis();

    Engine::Opened batch_engine = OpenEngine(fx);
    WallTimer batch_timer;
    BatchStats batch_stats;
    const auto batched_results = ExecuteBatch(*batch_engine.engine, workload,
                                              kTopK, strategy, &batch_stats);
    const double batched_cold_ms = batch_timer.ElapsedMillis();

    // Warm repeats on the same engines (caches and memos populated).
    WallTimer seq_warm_timer;
    for (const Query& query : workload) {
      ExecuteQuery(*sequential_engine.engine, query, kTopK, strategy);
    }
    const double sequential_warm_ms = seq_warm_timer.ElapsedMillis();
    WallTimer batch_warm_timer;
    BatchStats warm_stats;
    ExecuteBatch(*batch_engine.engine, workload, kTopK, strategy, &warm_stats);
    const double batched_warm_ms = batch_warm_timer.ElapsedMillis();

    const bool match = RowsIdentical(sequential_results, batched_results);
    all_match = all_match && match;
    const double speedup_cold =
        batched_cold_ms > 0.0 ? sequential_cold_ms / batched_cold_ms : 0.0;
    const double speedup_warm =
        batched_warm_ms > 0.0 ? sequential_warm_ms / batched_warm_ms : 0.0;
    if (strategy == Strategy::kSpecQp) headline_speedup = speedup_cold;

    Json& run = runs.Push(Json::Object());
    run.Set("strategy", std::string(StrategyName(strategy)));
    run.Set("k", kTopK);
    run.Set("sequential_cold_ms", sequential_cold_ms);
    run.Set("batched_cold_ms", batched_cold_ms);
    run.Set("speedup_cold", speedup_cold);
    run.Set("sequential_warm_ms", sequential_warm_ms);
    run.Set("batched_warm_ms", batched_warm_ms);
    run.Set("speedup_warm", speedup_warm);
    run.Set("answers_match", match);
    run.Set("batch", BatchStatsToJson(batch_stats));
    run.Set("batch_warm", BatchStatsToJson(warm_stats));

    PrintRow({std::string(StrategyName(strategy)),
              StrFormat("%.1f", sequential_cold_ms),
              StrFormat("%.1f", batched_cold_ms),
              StrFormat("%.2fx", speedup_cold),
              StrFormat("%llu", static_cast<unsigned long long>(
                                    batch_stats.shared_scan_hits)),
              match ? "yes" : "NO"},
             widths);
    std::printf(
        "  %s: %zu queries -> %zu executed, %llu lists resolved "
        "(%llu derived from %llu base scans), warm %.1f ms vs %.1f ms "
        "(%llu derived from %llu base scans)\n",
        std::string(StrategyName(strategy)).c_str(), batch_stats.batch_size,
        batch_stats.distinct_queries,
        static_cast<unsigned long long>(batch_stats.lists_resolved),
        static_cast<unsigned long long>(batch_stats.lists_derived),
        static_cast<unsigned long long>(batch_stats.base_scans),
        batched_warm_ms, sequential_warm_ms,
        static_cast<unsigned long long>(warm_stats.lists_derived),
        static_cast<unsigned long long>(warm_stats.base_scans));
  }
  out.Set("speedup_cold_spec_qp", headline_speedup);
  out.Set("answers_match", all_match);
  std::printf("\nAcceptance bar: Spec-QP cold speedup >= 1.5 (measured "
              "%.2fx), answers bit-identical (%s).\n",
              headline_speedup, all_match ? "yes" : "NO");

  std::remove(Fixture().store_path.c_str());
}

}  // namespace
}  // namespace specqp::bench

int main(int argc, char** argv) {
  return specqp::bench::BenchMain(argc, argv, "micro_batch",
                                  &specqp::bench::Run);
}
