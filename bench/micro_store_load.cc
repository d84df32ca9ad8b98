// Store-load microbenchmark: how fast a saved knowledge graph becomes
// queryable — LoadStore (eager verification + materialised, re-indexed
// owned store; what EngineOptions::mmap = false serves) vs the zero-copy
// SQPSTOR3 mmap open vs an N-shard SQPBNDL1 bundle of the same store
// (--shards, see docs/FORMATS.md). Reports cold (first load in this
// process) and warm (best of repeats, page cache hot) figures plus
// bytes_mapped; the bundle rows price the N-way open-time merge and record
// the per-shard scatter-gather counters — and checks that all engines
// give identical answers.
//
// This is the measurement behind the "O(ms) load" line in ROADMAP.md: the
// mmap opens do no per-triple parsing, so their latency is (near)
// independent of store size while LoadStore scales with it. The mmap open
// synthesises the identity SPO view, a single O(triples) fill that trades
// a few ms for the smaller file.
//
// --scale multiplies the generated store (subjects/objects/triples).

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/engine.h"
#include "rdf/mmap_store.h"
#include "rdf/sharded_store.h"
#include "rdf/store_io.h"
#include "relax/relaxation_index.h"
#include "util/fault_injector.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/timer.h"
#include "util/zipf.h"

namespace specqp::bench {
namespace {

constexpr size_t kNumSubjects = 30000;
constexpr size_t kNumPredicates = 12;
constexpr size_t kNumObjects = 4000;
constexpr size_t kNumTriples = 400000;
constexpr int kRepeats = 5;

// Set once after generation: Finalize() deduplicates (s,p,o), so the
// queryable store is slightly smaller than scale * kNumTriples.
size_t g_expected_triples = 0;

TripleStore BuildStore(size_t scale) {
  Rng rng(20260729);
  ZipfDistribution object_zipf(kNumObjects * scale, /*s=*/1.1);
  TripleStore store;
  Dictionary& dict = store.dict();
  std::vector<TermId> subjects;
  std::vector<TermId> predicates;
  std::vector<TermId> objects;
  for (size_t i = 0; i < kNumSubjects * scale; ++i) {
    subjects.push_back(dict.Intern("subject/" + std::to_string(i)));
  }
  for (size_t i = 0; i < kNumPredicates; ++i) {
    predicates.push_back(dict.Intern("predicate/" + std::to_string(i)));
  }
  for (size_t i = 0; i < kNumObjects * scale; ++i) {
    objects.push_back(dict.Intern("object/" + std::to_string(i)));
  }
  for (size_t i = 0; i < kNumTriples * scale; ++i) {
    const TermId s = subjects[rng.NextBounded(subjects.size())];
    const TermId p = predicates[rng.NextBounded(predicates.size())];
    const TermId o = objects[object_zipf.Sample(&rng)];
    store.AddEncoded(s, p, o, 1e6 / static_cast<double>((i % 10000) + 1));
  }
  store.Finalize();
  return store;
}

struct LoadTiming {
  double cold_ms = 0.0;  // first load in this process
  double warm_ms = 0.0;  // best of kRepeats
};

// Times `load` kRepeats times; `load` must fully construct a queryable
// store and return its triple count (consumed so the work is not elided).
template <typename Fn>
LoadTiming Measure(Fn load) {
  LoadTiming timing;
  for (int rep = 0; rep < kRepeats; ++rep) {
    WallTimer timer;
    const size_t triples = load();
    const double ms = timer.ElapsedMillis();
    SPECQP_CHECK(triples == g_expected_triples)
        << "load returned a wrong store";
    if (rep == 0) {
      timing.cold_ms = ms;
      timing.warm_ms = ms;
    } else {
      timing.warm_ms = std::min(timing.warm_ms, ms);
    }
  }
  return timing;
}

void Run(Json& out) {
  PrintTitle("micro_store_load — LoadStore vs mmap store open");

  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "specqp_micro_store_load";
  fs::create_directories(dir);
  const std::string v3_path = (dir / "store.v3.sqp").string();

  const size_t scale = DatasetScale();
  std::printf("generating %zu triples / %zu terms (scale %zu)...\n",
              kNumTriples * scale,
              (kNumSubjects + kNumObjects) * scale + kNumPredicates, scale);
  const TripleStore store = BuildStore(scale);
  g_expected_triples = store.size();
  RelaxationIndex no_rules;

  // Save the store with a small warmed stats snapshot embedded.
  WallTimer save_timer;
  {
    Engine warm(&store, &no_rules);
    for (TermId p = 0; p < store.dict().size(); ++p) {
      // Warm the per-predicate stats the planner consults first.
      if (store.dict().Name(p).rfind("predicate/", 0) == 0) {
        warm.catalog().GetStats(PatternKey{kInvalidTermId, p, kInvalidTermId});
      }
    }
    save_timer.Reset();
    SaveStoreOptions save;
    save.stats = warm.catalog().Snapshot();
    save.stats_head_fraction = warm.catalog().head_fraction();
    SPECQP_CHECK(SaveStore(store, v3_path, save).ok());
  }
  const double save_v3_ms = save_timer.ElapsedMillis();
  // The sharded variant: the same store as an N-shard bundle.
  const size_t shard_count = BenchShards();
  const std::string bundle_path = (dir / "store.bundle").string();
  save_timer.Reset();
  {
    ShardBundleOptions bundle_options;
    bundle_options.shard_count = static_cast<uint32_t>(shard_count);
    SPECQP_CHECK(WriteShardBundle(store, bundle_path, bundle_options).ok());
  }
  const double save_bundle_ms = save_timer.ElapsedMillis();
  const auto v3_bytes = fs::file_size(v3_path);

  // --- load timings ----------------------------------------------------------

  const LoadTiming v3_parse = Measure([&] {
    auto loaded = LoadStore(v3_path);
    SPECQP_CHECK(loaded.ok()) << loaded.status().ToString();
    return loaded.value().size();
  });
  // The engine fast path: structural open + metadata checksums, bulk
  // sections verified lazily.
  size_t bytes_mapped_v3 = 0;
  const LoadTiming v3_mmap = Measure([&] {
    auto mapped = MmapStore::Open(v3_path);
    SPECQP_CHECK(mapped.ok()) << mapped.status().ToString();
    SPECQP_CHECK(mapped.value()->VerifyMetadataSections().ok());
    bytes_mapped_v3 = mapped.value()->bytes_mapped();
    return mapped.value()->store().size();
  });
  // Fully checksummed open (the integrity level LoadStore uses): this
  // decode-validates every posting block.
  MmapStore::Options eager;
  eager.verify = MmapStore::Verify::kEager;
  const LoadTiming v3_mmap_eager = Measure([&] {
    auto mapped = MmapStore::Open(v3_path, eager);
    SPECQP_CHECK(mapped.ok()) << mapped.status().ToString();
    return mapped.value()->store().size();
  });
  // Bundle opens: N shard mmaps plus the open-time global SPO merge (the
  // price of scatter-gather); eager additionally CRC-verifies every shard
  // section and re-hashes every triple's shard assignment.
  size_t bytes_mapped_bundle = 0;
  const LoadTiming bundle_mmap = Measure([&] {
    auto sharded = ShardedStore::Open(bundle_path);
    SPECQP_CHECK(sharded.ok()) << sharded.status().ToString();
    bytes_mapped_bundle = sharded.value()->bytes_mapped();
    return sharded.value()->store().size();
  });
  const LoadTiming bundle_mmap_eager = Measure([&] {
    ShardedStore::Options sharded_eager;
    sharded_eager.verify = MmapStore::Verify::kEager;
    auto sharded = ShardedStore::Open(bundle_path, sharded_eager);
    SPECQP_CHECK(sharded.ok()) << sharded.status().ToString();
    return sharded.value()->store().size();
  });

  // --- answer equivalence ----------------------------------------------------

  EngineOptions mmap_options = MakeEngineOptions();
  mmap_options.mmap = true;
  EngineOptions parse_options = MakeEngineOptions();
  parse_options.mmap = false;
  auto mapped_v3_engine =
      Engine::OpenFromPath(v3_path, &no_rules, mmap_options);
  auto sharded_engine =
      Engine::OpenFromPath(bundle_path, &no_rules, mmap_options);
  auto parsed_engine = Engine::OpenFromPath(v3_path, &no_rules, parse_options);
  SPECQP_CHECK(mapped_v3_engine.ok() && sharded_engine.ok() &&
               parsed_engine.ok());
  SPECQP_CHECK(mapped_v3_engine.value().mmap_backed());
  SPECQP_CHECK(sharded_engine.value().mmap_backed());
  const std::string query_text =
      "SELECT ?s WHERE { ?s <predicate/0> <object/0> . "
      "?s <predicate/1> <object/1> }";
  // The untimed parsed query runs first, so the timed first queries below
  // time a store's first query, not the process's first query.
  auto parsed_rows = ExecuteTextQuery(*parsed_engine.value().engine,
                                      query_text, /*k=*/10, Strategy::kNoRelax);
  WallTimer first_query_timer;
  auto mapped_v3_rows = ExecuteTextQuery(*mapped_v3_engine.value().engine,
                                         query_text, /*k=*/10,
                                         Strategy::kNoRelax);
  const double mmap_v3_first_query_ms = first_query_timer.ElapsedMillis();
  first_query_timer.Reset();
  auto sharded_rows = ExecuteTextQuery(*sharded_engine.value().engine,
                                       query_text, /*k=*/10,
                                       Strategy::kNoRelax);
  const double bundle_first_query_ms = first_query_timer.ElapsedMillis();
  SPECQP_CHECK(mapped_v3_rows.ok() && sharded_rows.ok() && parsed_rows.ok());
  auto rows_match = [](const QueryResponse& a,
                       const QueryResponse& b) {
    if (a.rows.size() != b.rows.size()) return false;
    for (size_t i = 0; i < a.rows.size(); ++i) {
      if (a.rows[i].bindings != b.rows[i].bindings ||
          a.rows[i].score != b.rows[i].score) {
        return false;
      }
    }
    return true;
  };
  const bool answers_match =
      rows_match(mapped_v3_rows.value(), parsed_rows.value()) &&
      rows_match(sharded_rows.value(), parsed_rows.value());
  SPECQP_CHECK(answers_match) << "mmap and parsed engines disagree";

  // --- report ----------------------------------------------------------------

  const std::vector<int> widths = {34, 12, 12};
  PrintRow({"variant", "cold ms", "warm ms"}, widths);
  PrintRule(widths);
  struct RowSpec {
    const char* name;
    const LoadTiming* timing;
  };
  const std::string bundle_lazy_name =
      StrFormat("bundle open, %zu shards (lazy CRC)", shard_count);
  const std::string bundle_eager_name =
      StrFormat("bundle open, %zu shards (eager CRC)", shard_count);
  const RowSpec rows[] = {
      {"LoadStore (verify + index)", &v3_parse},
      {"mmap open (lazy CRC)", &v3_mmap},
      {"mmap open (eager CRC)", &v3_mmap_eager},
      {bundle_lazy_name.c_str(), &bundle_mmap},
      {bundle_eager_name.c_str(), &bundle_mmap_eager},
  };
  for (const RowSpec& row : rows) {
    PrintRow({row.name, StrFormat("%.3f", row.timing->cold_ms),
              StrFormat("%.3f", row.timing->warm_ms)},
             widths);
  }
  const double speedup_cold = v3_parse.cold_ms / v3_mmap.cold_ms;
  const double speedup_warm = v3_parse.warm_ms / v3_mmap.warm_ms;
  std::printf(
      "\nmmap speedup vs LoadStore: %.1fx cold, %.1fx warm; bytes mapped "
      "%zu; first mapped query %.3f ms; answers match: %s\n",
      speedup_cold, speedup_warm, bytes_mapped_v3, mmap_v3_first_query_ms,
      answers_match ? "yes" : "no");
  std::printf(
      "%zu-shard bundle: %.3f ms warm open (%.1fx the single file, "
      "merge included), %zu bytes mapped, first query %.3f ms\n",
      shard_count, bundle_mmap.warm_ms,
      v3_mmap.warm_ms > 0.0 ? bundle_mmap.warm_ms / v3_mmap.warm_ms : 0.0,
      bytes_mapped_bundle, bundle_first_query_ms);

  Json& config = out.Set("config", Json::Object());
  config.Set("triples", g_expected_triples);
  config.Set("terms",
             (kNumSubjects + kNumObjects) * scale + kNumPredicates);
  config.Set("repeats", kRepeats);
  config.Set("file_bytes_v3", static_cast<uint64_t>(v3_bytes));
  config.Set("save_v3_ms", save_v3_ms);
  config.Set("save_bundle_ms", save_bundle_ms);
  config.Set("bundle_shards", shard_count);

  Json& loads = out.Set("loads", Json::Array());
  const struct {
    const char* name;
    const LoadTiming* timing;
    uint64_t mapped;
  } specs[] = {
      {"v3_parse", &v3_parse, 0},
      {"v3_mmap_lazy", &v3_mmap, bytes_mapped_v3},
      {"v3_mmap_eager", &v3_mmap_eager, bytes_mapped_v3},
      {"bundle_mmap_lazy", &bundle_mmap, bytes_mapped_bundle},
      {"bundle_mmap_eager", &bundle_mmap_eager, bytes_mapped_bundle},
  };
  for (const auto& spec : specs) {
    Json& j = loads.Push(Json::Object());
    j.Set("name", spec.name);
    j.Set("load_ms", spec.timing->cold_ms);
    j.Set("load_ms_warm", spec.timing->warm_ms);
    j.Set("bytes_mapped", spec.mapped);
  }
  out.Set("speedup_cold_vs_parse", speedup_cold);
  out.Set("speedup_warm_vs_parse", speedup_warm);
  out.Set("mmap_v3_first_query_ms", mmap_v3_first_query_ms);
  out.Set("bundle_first_query_ms", bundle_first_query_ms);
  out.Set("answers_match", answers_match);

  // Per-shard scatter-gather ledger of the bundle engine after its query:
  // static shape plus the gather counters, folded into the artifact so the
  // perf trajectory sees per-shard balance.
  SPECQP_CHECK(sharded_engine.value().sharded != nullptr);
  Json& shards_json = out.Set("shards", Json::Array());
  for (const auto& c : sharded_engine.value().sharded->Counters()) {
    Json& j = shards_json.Push(Json::Object());
    j.Set("shard_id", c.shard_id);
    j.Set("triple_count", c.triple_count);
    j.Set("bytes_mapped", c.bytes_mapped);
    j.Set("triples_gathered", c.triples_gathered);
    j.Set("patterns_scattered", c.patterns_scattered);
  }

  // --- fault scenarios -------------------------------------------------------
  // Deliberate injected-failure measurements, fenced under a
  // "fault_scenarios" object the comparison gate exempts from its
  // no-fault-artifact rule: what an open-time transient costs once the
  // retry loop recovers it, and what serving costs with 1 of N shards
  // permanently down (degraded open + first query over the survivors).

  Json& fault_json = out.Set("fault_scenarios", Json::Object());
  {
    // Shard 0 fails twice at open and recovers on the third attempt —
    // the open pays two backoffs on top of the clean bundle open.
    const char* retry_plan = "seed=11;shard.open.0=1@2";
    ShardedStore::Options retry_options;
    retry_options.allow_quarantine = true;
    retry_options.open_retry.initial_backoff = std::chrono::microseconds(200);
    retry_options.open_retry.max_backoff = std::chrono::microseconds(2000);
    double retry_open_ms = 0.0;
    {
      ScopedFaultPlan plan(retry_plan);
      WallTimer timer;
      auto sharded = ShardedStore::Open(bundle_path, retry_options);
      retry_open_ms = timer.ElapsedMillis();
      SPECQP_CHECK(sharded.ok()) << sharded.status().ToString();
      SPECQP_CHECK(sharded.value()->ShardsFailed() == 0)
          << "open retry did not recover the transient";
    }
    Json& retry_json = fault_json.Set("open_retry", Json::Object());
    retry_json.Set("fault_plan", retry_plan);
    retry_json.Set("open_ms", retry_open_ms);
    retry_json.Set("clean_open_ms_warm", bundle_mmap.warm_ms);
    std::printf(
        "fault scenario: transient shard-open fault (2 fires) recovered in "
        "%.3f ms open (clean warm open %.3f ms)\n",
        retry_open_ms, bundle_mmap.warm_ms);
  }
  {
    // Shard 0 permanently down: degraded open quarantines it, the first
    // query answers from the surviving shards with the ledger set.
    const char* degraded_plan = "seed=11;shard.open.0=1";
    EngineOptions degraded_options = MakeEngineOptions();
    degraded_options.mmap = true;
    degraded_options.degraded_reads = true;
    double degraded_open_ms = 0.0;
    double degraded_first_query_ms = 0.0;
    uint64_t shards_failed = 0;
    uint64_t shards_total = 0;
    {
      ScopedFaultPlan plan(degraded_plan);
      WallTimer timer;
      auto degraded_engine =
          Engine::OpenFromPath(bundle_path, &no_rules, degraded_options);
      degraded_open_ms = timer.ElapsedMillis();
      SPECQP_CHECK(degraded_engine.ok())
          << degraded_engine.status().ToString();
      FaultInjector::Global().Disarm();
      WallTimer query_timer;
      auto degraded_rows = ExecuteTextQuery(*degraded_engine.value().engine,
                                            query_text, /*k=*/10,
                                            Strategy::kNoRelax);
      degraded_first_query_ms = query_timer.ElapsedMillis();
      SPECQP_CHECK(degraded_rows.ok()) << degraded_rows.status().ToString();
      shards_failed = degraded_rows.value().stats.shards_failed;
      shards_total = degraded_rows.value().stats.shards_total;
      SPECQP_CHECK(shards_failed == 1) << "expected exactly 1 shard down";
    }
    Json& degraded_json = fault_json.Set("degraded", Json::Object());
    degraded_json.Set("fault_plan", degraded_plan);
    degraded_json.Set("open_ms", degraded_open_ms);
    degraded_json.Set("first_query_ms", degraded_first_query_ms);
    degraded_json.Set("clean_first_query_ms", bundle_first_query_ms);
    degraded_json.Set("shards_failed", shards_failed);
    degraded_json.Set("shards_total", shards_total);
    std::printf(
        "fault scenario: %llu of %llu shards down -> degraded open %.3f ms, "
        "first degraded query %.3f ms (clean %.3f ms)\n",
        static_cast<unsigned long long>(shards_failed),
        static_cast<unsigned long long>(shards_total), degraded_open_ms,
        degraded_first_query_ms, bundle_first_query_ms);
  }

  std::error_code ignored;
  fs::remove_all(dir, ignored);
}

}  // namespace
}  // namespace specqp::bench

int main(int argc, char** argv) {
  return specqp::bench::BenchMain(argc, argv, "micro_store_load",
                                  &specqp::bench::Run);
}
