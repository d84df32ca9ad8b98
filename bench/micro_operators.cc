// Operator microbenchmarks: throughput of the building blocks behind the
// tables/figures — pattern scans, incremental merges, rank joins,
// histogram convolution + refit, and PLANGEN latency. Runs on the shared
// BenchMain driver so the timings land in the same JSON artifact format as
// the figure/table benches.

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/engine.h"
#include "rdf/posting_list.h"
#include "rdf/posting_partition.h"
#include "rdf/store_format.h"
#include "rdf/triple_store.h"
#include "relax/relaxation_index.h"
#include "stats/convolution.h"
#include "stats/grid_pdf.h"
#include "topk/exec_context.h"
#include "topk/incremental_merge.h"
#include "topk/parallel_rank_join.h"
#include "topk/pattern_scan.h"
#include "topk/rank_join.h"
#include "topk/top_k.h"
#include "util/fault_injector.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace specqp::bench {
namespace {

// Synthetic store: `num_objects` object constants under one predicate, each
// with ~num_triples/num_objects power-law-scored subjects.
struct MicroFixture {
  TripleStore store;
  RelaxationIndex rules;
  TermId predicate = kInvalidTermId;
  std::vector<TermId> objects;

  explicit MicroFixture(size_t num_subjects, size_t num_objects,
                        size_t triples_per_subject) {
    Rng rng(20240607);
    Dictionary& dict = store.dict();
    predicate = dict.Intern("p");
    for (size_t o = 0; o < num_objects; ++o) {
      objects.push_back(dict.Intern("obj" + std::to_string(o)));
    }
    for (size_t s = 0; s < num_subjects; ++s) {
      const TermId subject = dict.Intern("sub" + std::to_string(s));
      const double score =
          1e6 / static_cast<double>((s % 1000) + 1);  // power law
      for (size_t t = 0; t < triples_per_subject; ++t) {
        store.AddEncoded(subject, predicate,
                         objects[rng.NextBounded(objects.size())], score);
      }
    }
    store.Finalize();
    // Rules: each object relaxes to the next few, decaying weights.
    for (size_t o = 0; o < num_objects; ++o) {
      for (size_t j = 1; j <= 5 && o + j < num_objects; ++j) {
        RelaxationRule rule;
        rule.from = PatternKey{kInvalidTermId, predicate, objects[o]};
        rule.to = PatternKey{kInvalidTermId, predicate, objects[o + j]};
        rule.weight = 0.9 / static_cast<double>(j);
        (void)rules.AddRule(rule);
      }
    }
  }

  TriplePattern Pattern(size_t object_index, VarId var) const {
    return TriplePattern(PatternTerm::Var(var), PatternTerm::Const(predicate),
                         PatternTerm::Const(objects[object_index]));
  }
};

MicroFixture& Fixture() {
  static auto* fx = new MicroFixture(20000, 16, 4);
  return *fx;
}

// The LARGEST micro input (240k triples): one predicate, 8 objects,
// ~30k-entry posting lists per side. Shared by the parallel rank join and
// the block-skipping comparison.
MicroFixture& BigFixture() {
  static auto* fx = new MicroFixture(240000, 8, 1);
  return *fx;
}

// Adversarial input for the plan_race scenario: kGroups independent
// 3-pattern star queries (?s p A . ?s p B . ?s p C) whose PLANGEN decision
// is steered by poisoned catalog statistics, so the planner picks the
// wrong plan for half of them.
//
// Per group, 40 "answer" subjects sit at the tied-top score of A, B, and C
// simultaneously (answers score exactly 3.0 normalised), A and B hold
// nothing else, and C carries a 30k-entry slowly-descending filler tail
// shared with nobody. The plan shapes then cost wildly differently:
//
//   {A,B,C}   (no relaxation)  folds A |><| B first: both sides exhaust
//             after 40 rows, C only needs ~40 pulls before the HRJN corner
//             bound releases the answers — microseconds.
//   {B,C|A*}  (A relaxed)      folds B |><| C first: after the 40 matches,
//             the outer join keeps pulling the inner join (its upper bound
//             1 + ub_C dominates the merge side's 1.0) until C's 30k tail
//             is fully drained — milliseconds.
//
// A relaxes to R (weight 0.8, non-empty, joins back to the 40 answers), so
// the runner-up's certificate bound is (3-1) + 0.8 = 2.8 < 3.0: a k-th
// answer at 3.0 certifies the runner-up bit-identical. Even groups poison
// A's stats low (the planner wrongly relaxes a perfect pattern -> slow
// primary, the runner-up must win the race); odd groups poison R's stats
// to claim it is empty (the planner correctly keeps {A,B,C} -> the
// runner-up's work is wasted). Speculation pays off on half the workload.
struct RaceFixture {
  static constexpr size_t kGroups = 8;
  static constexpr size_t kAnswers = 40;
  static constexpr size_t kFillers = 30000;
  static constexpr size_t kRelaxJunk = 12000;

  TripleStore store;
  RelaxationIndex rules;
  std::vector<Query> queries;           // queries[q] is group q's star
  std::vector<v3::StatsEntry> poison;   // Preload before any planning

  RaceFixture() {
    Dictionary& dict = store.dict();
    const TermId p = dict.Intern("rp");
    for (size_t q = 0; q < kGroups; ++q) {
      const std::string tag = std::to_string(q);
      const TermId obj_a = dict.Intern("raceA" + tag);
      const TermId obj_b = dict.Intern("raceB" + tag);
      const TermId obj_c = dict.Intern("raceC" + tag);
      const TermId obj_r = dict.Intern("raceR" + tag);
      for (size_t i = 0; i < kAnswers; ++i) {
        const TermId m = dict.Intern("m" + tag + "_" + std::to_string(i));
        store.AddEncoded(m, p, obj_a, 1000.0);
        store.AddEncoded(m, p, obj_b, 1000.0);
        store.AddEncoded(m, p, obj_c, 1000.0);
        store.AddEncoded(m, p, obj_r, 1000.0);
      }
      for (size_t j = 0; j < kFillers; ++j) {
        const TermId f = dict.Intern("cf" + tag + "_" + std::to_string(j));
        const double score =
            990.0 - 790.0 * static_cast<double>(j) /
                        static_cast<double>(kFillers - 1);
        store.AddEncoded(f, p, obj_c, score);
      }
      for (size_t j = 0; j < kRelaxJunk; ++j) {
        const TermId f = dict.Intern("rf" + tag + "_" + std::to_string(j));
        store.AddEncoded(f, p, obj_r, 1000.0);
      }

      RelaxationRule rule;
      rule.from = PatternKey{kInvalidTermId, p, obj_a};
      rule.to = PatternKey{kInvalidTermId, p, obj_r};
      rule.weight = 0.8;
      (void)rules.AddRule(rule);

      if (q % 2 == 0) {
        // Planner-wrong group: A's matches look like junk (mean score
        // ~0.1), so E_Q(k) collapses and relaxing A through the juicy R
        // wins the comparison — against a pattern that is actually perfect.
        poison.push_back(v3::StatsEntry{kInvalidTermId, p, obj_a, 0,
                                        kAnswers, 0.1, 3.2, 4.0});
      } else {
        // Planner-right group: a stale snapshot row claims R is empty, so
        // E_Q'(1) is 0 and the planner keeps the (genuinely best)
        // unrelaxed join. The two-bucket model cannot express "non-empty
        // but uniformly low-scored" — its head bucket always reaches the
        // normalised ceiling — so an empty-claiming row is the one stats
        // shape that deterministically suppresses the relaxation.
        poison.push_back(v3::StatsEntry{kInvalidTermId, p, obj_r, 0,
                                        0, 0.0, 0.0, 0.0});
      }

      Query query;
      const VarId s = query.GetOrAddVariable("s");
      query.AddPattern(TriplePattern(PatternTerm::Var(s),
                                     PatternTerm::Const(p),
                                     PatternTerm::Const(obj_a)));
      query.AddPattern(TriplePattern(PatternTerm::Var(s),
                                     PatternTerm::Const(p),
                                     PatternTerm::Const(obj_b)));
      query.AddPattern(TriplePattern(PatternTerm::Var(s),
                                     PatternTerm::Const(p),
                                     PatternTerm::Const(obj_c)));
      query.AddProjection(s);
      queries.push_back(std::move(query));
    }
    store.Finalize();
  }
};

RaceFixture& RaceFix() {
  static auto* fx = new RaceFixture();
  return *fx;
}

// Re-encodes a flat posting list into the block-compressed backend, as a
// v3-backed store would serve it.
std::shared_ptr<const PostingList> BlockedCopy(const TripleStore& store,
                                               const PostingList& flat) {
  std::span<const PostingEntry> entries = flat.entries;
  EncodedPostingBlocks encoded =
      EncodePostingBlocks(entries.data(), entries.size());
  return std::make_shared<const PostingList>(PostingList::FromBlocks(
      std::move(encoded.headers), std::move(encoded.payload), entries.size(),
      flat.max_raw_score, static_cast<uint32_t>(store.size())));
}

// Keeps the result of `expr` alive so the compiler cannot elide the work.
template <typename T>
inline void DoNotOptimize(T const& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

// One microbenchmark: `body` is a single iteration; `items_per_iter` (when
// non-zero) scales the reported throughput.
struct MicroResult {
  std::string name;
  uint64_t iterations = 0;
  double total_ms = 0.0;
  double ns_per_iter = 0.0;
  uint64_t items_per_iter = 0;
  double items_per_second = 0.0;
  double speedup_vs_serial = 0.0;  // parallel variants only (0 = n/a)
};

MicroResult RunMicro(const std::string& name,
                     const std::function<void()>& body,
                     uint64_t items_per_iter = 0) {
  body();  // warm-up (first-touch allocation, cache fills)

  constexpr double kMinSeconds = 0.1;
  constexpr uint64_t kMaxIters = 1u << 22;
  uint64_t iterations = 0;
  WallTimer timer;
  // Run in growing batches so the clock is read rarely relative to work.
  for (uint64_t batch = 1; timer.ElapsedSeconds() < kMinSeconds &&
                           iterations < kMaxIters;
       batch *= 2) {
    for (uint64_t i = 0; i < batch; ++i) body();
    iterations += batch;
  }

  MicroResult result;
  result.name = name;
  result.iterations = iterations;
  result.total_ms = timer.ElapsedMillis();
  result.ns_per_iter =
      result.total_ms * 1e6 / static_cast<double>(iterations);
  result.items_per_iter = items_per_iter;
  if (items_per_iter > 0) {
    result.items_per_second = static_cast<double>(items_per_iter) *
                              static_cast<double>(iterations) /
                              (result.total_ms / 1e3);
  }
  return result;
}

void Run(Json& out) {
  PrintTitle("Operator microbenchmarks");
  std::vector<MicroResult> results;

  MicroFixture& fx = Fixture();

  {
    const PatternKey key = fx.Pattern(0, 0).Key();
    results.push_back(RunMicro(
        "posting_list_build",
        [&] {
          PostingList list = BuildPostingList(fx.store, key);
          DoNotOptimize(list.entries.data());
        },
        fx.store.CountMatches(key)));
  }

  {
    PostingListCache cache(&fx.store);
    const TriplePattern pattern = fx.Pattern(1, 0);
    auto list = cache.Get(pattern.Key());
    results.push_back(RunMicro(
        "pattern_scan_drain",
        [&] {
          ExecStats stats;
          ExecContext ctx(&stats);
          PatternScan scan(&fx.store, list, pattern, 1, 1.0, &ctx);
          ScoredRow row;
          size_t n = 0;
          while (scan.Next(&row)) ++n;
          DoNotOptimize(n);
        },
        list->size()));
  }

  {
    // The disarmed fault-injection probe: the hook every storage touch
    // pays in production (one relaxed atomic load). The artifact tracks
    // it so a change that puts real work on the disarmed path shows up
    // as a runtime regression here — and the hot-path benches above,
    // which all run with injection disabled, bound the end-to-end cost.
    SPECQP_CHECK(!FaultInjector::Global().armed());
    constexpr uint64_t kProbesPerIter = 1024;
    results.push_back(RunMicro(
        "fault_probe_disarmed",
        [&] {
          bool fired = false;
          for (uint64_t i = 0; i < kProbesPerIter; ++i) {
            fired |= FaultShouldFail("shard.read", i & 7);
          }
          DoNotOptimize(fired);
        },
        kProbesPerIter));
  }

  for (size_t num_inputs : {2u, 5u, 10u}) {
    PostingListCache cache(&fx.store);
    results.push_back(RunMicro(
        StrFormat("incremental_merge_topk/inputs:%zu", num_inputs), [&] {
          ExecStats stats;
          ExecContext ctx(&stats);
          std::vector<std::unique_ptr<ScoredRowIterator>> inputs;
          for (size_t i = 0; i < num_inputs; ++i) {
            const TriplePattern pattern =
                fx.Pattern(i % fx.objects.size(), 0);
            inputs.push_back(std::make_unique<PatternScan>(
                &fx.store, cache.Get(pattern.Key()), pattern, 1,
                1.0 / static_cast<double>(i + 1), &ctx));
          }
          IncrementalMerge merge(std::move(inputs), &ctx);
          const auto rows = PullTopK(&merge, 20, &stats);
          DoNotOptimize(rows.data());
        }));
  }

  for (size_t k : {1u, 10u, 100u}) {
    PostingListCache cache(&fx.store);
    const TriplePattern left = fx.Pattern(0, 0);
    const TriplePattern right = fx.Pattern(1, 0);
    results.push_back(
        RunMicro(StrFormat("rank_join_topk/k:%zu", k), [&] {
          ExecStats stats;
          ExecContext ctx(&stats);
          auto l = std::make_unique<PatternScan>(
              &fx.store, cache.Get(left.Key()), left, 1, 1.0, &ctx);
          auto r = std::make_unique<PatternScan>(
              &fx.store, cache.Get(right.Key()), right, 1, 1.0, &ctx);
          RankJoin join(std::move(l), std::move(r), {0}, &ctx);
          const auto rows = PullTopK(&join, k, &stats);
          DoNotOptimize(rows.data());
        }));
  }

  {
    // Partitioned parallel rank join over the LARGEST micro input: one
    // predicate, 8 objects, ~30k-entry posting lists per side. The
    // partition pieces are built outside the timed body (a build-time cost
    // amortised across executions, like posting-list construction itself);
    // the timed body builds the per-partition HRJN trees, runs them on the
    // pool, and merges the top-k. threads:1 is the serial RankJoin
    // baseline the speedups are measured against.
    MicroFixture& big = BigFixture();
    PostingListCache cache(&big.store);
    const TriplePattern left = big.Pattern(0, 0);
    const TriplePattern right = big.Pattern(1, 0);
    auto left_list = cache.Get(left.Key());
    auto right_list = cache.Get(right.Key());
    const size_t k = 500;
    double serial_ns = 0.0;
    for (const int threads : {1, 2, 4, 8}) {
      const uint32_t parts = static_cast<uint32_t>(threads);
      std::unique_ptr<ThreadPool> pool;
      std::vector<std::shared_ptr<const PostingList>> left_parts;
      std::vector<std::shared_ptr<const PostingList>> right_parts;
      if (threads > 1) {
        pool = std::make_unique<ThreadPool>(static_cast<size_t>(threads) - 1);
        left_parts = PartitionPostingList(big.store, *left_list, 0, parts);
        right_parts = PartitionPostingList(big.store, *right_list, 0, parts);
      }
      MicroResult r = RunMicro(
          StrFormat("parallel_rank_join_topk/threads:%d", threads), [&] {
            ExecStats stats;
            ExecContext ctx(&stats, pool.get());
            std::vector<ScoredRow> rows;
            if (threads == 1) {
              auto l = std::make_unique<PatternScan>(&big.store, left_list,
                                                     left, 1, 1.0, &ctx);
              auto r2 = std::make_unique<PatternScan>(&big.store, right_list,
                                                      right, 1, 1.0, &ctx);
              RankJoin join(std::move(l), std::move(r2), {0}, &ctx);
              rows = PullTopK(&join, k, &stats);
            } else {
              std::vector<std::unique_ptr<ScoredRowIterator>> roots;
              for (uint32_t p = 0; p < parts; ++p) {
                ExecContext* part_ctx = ctx.ForPartition();
                auto l = std::make_unique<PatternScan>(
                    &big.store, left_parts[p], left, 1, 1.0, part_ctx);
                auto r2 = std::make_unique<PatternScan>(
                    &big.store, right_parts[p], right, 1, 1.0, part_ctx);
                roots.push_back(std::make_unique<RankJoin>(
                    std::move(l), std::move(r2), std::vector<VarId>{0},
                    part_ctx));
              }
              ParallelRankJoin join(std::move(roots), &ctx);
              rows = PullTopK(&join, k, &stats);
              ctx.MergePartitionStats();
            }
            DoNotOptimize(rows.data());
          });
      if (threads == 1) {
        serial_ns = r.ns_per_iter;
      } else if (serial_ns > 0.0 && r.ns_per_iter > 0.0) {
        r.speedup_vs_serial = serial_ns / r.ns_per_iter;
      }
      results.push_back(std::move(r));
    }
  }

  {
    // Block skipping on the same 240k-triple input: a self-join over the
    // ~30k-entry obj0 list at k=10. The list's score curve has ~30 tied
    // top-score entries per side, so the HRJN corner bound is beaten after
    // a few dozen pulls and the join never looks at the tail. A flat list
    // pays for all ~30k entries up front regardless; the block-compressed
    // backend decodes only the leading block per scan and the remaining
    // ~470 blocks are charged as provably-dead skips at teardown. Both
    // backends return identical rows (the store-format probe asserts this
    // bit-exactly); `block_skipping` in the artifact records the counters
    // from one instrumented run so compare_bench_json.py can fail a change
    // that silently regresses skipping to zero.
    MicroFixture& big = BigFixture();
    PostingListCache cache(&big.store);
    const TriplePattern pattern = big.Pattern(0, 0);
    auto flat_list = cache.Get(pattern.Key());
    auto blocked_list = BlockedCopy(big.store, *flat_list);
    const size_t k = 10;
    for (const bool use_blocked : {false, true}) {
      const auto& list = use_blocked ? blocked_list : flat_list;
      results.push_back(RunMicro(
          StrFormat("rank_join_topk_240k/backend:%s",
                    use_blocked ? "blocked" : "flat"),
          [&] {
            ExecStats stats;
            ExecContext ctx(&stats);
            auto l = std::make_unique<PatternScan>(&big.store, list, pattern,
                                                   1, 1.0, &ctx);
            auto r = std::make_unique<PatternScan>(&big.store, list, pattern,
                                                   1, 1.0, &ctx);
            RankJoin join(std::move(l), std::move(r), {0}, &ctx);
            const auto rows = PullTopK(&join, k, &stats);
            DoNotOptimize(rows.data());
          }));
    }
    ExecStats stats;
    {
      ExecContext ctx(&stats);
      auto l = std::make_unique<PatternScan>(&big.store, blocked_list,
                                             pattern, 1, 1.0, &ctx);
      auto r = std::make_unique<PatternScan>(&big.store, blocked_list,
                                             pattern, 1, 1.0, &ctx);
      RankJoin join(std::move(l), std::move(r), {0}, &ctx);
      const auto rows = PullTopK(&join, k, &stats);
      DoNotOptimize(rows.data());
    }  // tree teardown charges the untouched tail blocks as skipped
    const size_t blocks_per_list =
        (blocked_list->size() + kPostingBlockEntries - 1) /
        kPostingBlockEntries;
    std::printf(
        "block skipping (240k self-join, k=%zu): decoded %llu of %zu "
        "blocks across both scans, skipped %llu\n",
        k, static_cast<unsigned long long>(stats.blocks_decoded),
        2 * blocks_per_list,
        static_cast<unsigned long long>(stats.blocks_skipped));
    Json& skip = out.Set("block_skipping", Json::Object());
    skip.Set("list_entries", blocked_list->size());
    skip.Set("blocks_per_list", blocks_per_list);
    skip.Set("k", k);
    skip.Set("blocks_decoded", stats.blocks_decoded);
    skip.Set("blocks_skipped", stats.blocks_skipped);
  }

  for (int patterns : {2, 3, 4}) {
    TwoBucketHistogram h(0.2, 0.8);
    results.push_back(RunMicro(
        StrFormat("convolve_refit_chain/patterns:%d", patterns), [&] {
          TwoBucketHistogram acc = h;
          for (int i = 1; i < patterns; ++i) {
            acc = RefitTwoBucket(ConvolveTwoBucket(acc, h), 0.8);
          }
          DoNotOptimize(acc.sigma_r());
        }));
  }

  for (int patterns : {2, 3, 4}) {
    TwoBucketHistogram h(0.2, 0.8);
    const double delta = 1.0 / 512.0;
    results.push_back(RunMicro(
        StrFormat("grid_convolve_chain/patterns:%d", patterns), [&] {
          GridPdf acc = GridPdf::FromDistribution(h, delta);
          for (int i = 1; i < patterns; ++i) {
            acc = GridPdf::Convolve(acc, GridPdf::FromDistribution(h, delta));
          }
          DoNotOptimize(acc.Mean());
        }));
  }

  for (size_t num_patterns : {2u, 3u, 4u}) {
    Engine engine(&fx.store, &fx.rules, MakeEngineOptions());
    Query query;
    const VarId s = query.GetOrAddVariable("s");
    for (size_t i = 0; i < num_patterns; ++i) {
      query.AddPattern(fx.Pattern(i, s));
    }
    query.AddProjection(s);
    engine.Warm(query);
    // Built once, outside the timed body, so the rows time planning only.
    const QueryRequest request = QueryRequest::FromQuery(query, 10);
    (void)engine.Explain(request);  // warm the stats/selectivity memos
    results.push_back(RunMicro(
        StrFormat("plangen_latency/patterns:%zu", num_patterns), [&] {
          const QueryResponse planned = engine.Explain(request);
          DoNotOptimize(planned.plan.singletons.data());
        }));
  }

  for (const bool speculative : {false, true}) {
    Engine engine(&fx.store, &fx.rules, MakeEngineOptions());
    Query query;
    const VarId s = query.GetOrAddVariable("s");
    query.AddPattern(fx.Pattern(0, s));
    query.AddPattern(fx.Pattern(1, s));
    query.AddPattern(fx.Pattern(2, s));
    query.AddProjection(s);
    engine.Warm(query);
    results.push_back(RunMicro(
        StrFormat("end_to_end_query/%s",
                  speculative ? "spec_qp" : "trinit"),
        [&] {
          const auto result = ExecuteQuery(
              engine, query, 10,
              speculative ? Strategy::kSpecQp : Strategy::kTrinit);
          DoNotOptimize(result.rows.data());
        }));
    if (speculative) out.Set("cache", CacheStatsToJson(engine.postings()));
  }

  {
    // plan_race: end-to-end latency with speculation off vs on over the
    // adversarial RaceFixture (planner wrong on half the groups; see the
    // fixture comment). Per-query latencies are collected individually —
    // RunMicro's mean would bury the point, which lives in the tail: the
    // planner-wrong groups are ~100x slower than the rest, so p99 tracks
    // them and racing the runner-up pulls p99 down to the fast plan plus
    // race overhead. Wasted work (the losers' discarded answer objects) is
    // the price, reported as a fraction of all speculative answer objects.
    RaceFixture& rf = RaceFix();
    const size_t k = 10;
    const int reps = 20;
    const int threads = 2;  // minimum for a race: the two plans time-share

    const auto make_engine = [&](double threshold) {
      EngineOptions opts = MakeEngineOptions();
      opts.num_threads = threads;
      opts.speculate_threshold = threshold;
      auto engine = std::make_unique<Engine>(&rf.store, &rf.rules, opts);
      // Poison before the first planner touch: Preload only inserts
      // entries the catalog has not computed yet.
      engine->catalog().Preload(rf.poison);
      for (const Query& query : rf.queries) engine->Warm(query);
      return engine;
    };
    const auto measure = [&](Engine& engine, ExecStats* total) {
      std::vector<double> ms;
      ms.reserve(static_cast<size_t>(reps) * rf.queries.size());
      for (int r = 0; r < reps; ++r) {
        for (const Query& query : rf.queries) {
          WallTimer timer;
          const auto result = ExecuteQuery(engine, query, k, Strategy::kSpecQp);
          ms.push_back(timer.ElapsedMillis());
          *total += result.stats;
          DoNotOptimize(result.rows.data());
        }
      }
      std::sort(ms.begin(), ms.end());
      return ms;
    };
    const auto pct = [](const std::vector<double>& sorted, double p) {
      const size_t index = static_cast<size_t>(
          p * static_cast<double>(sorted.size() - 1) + 0.5);
      return sorted[index];
    };

    auto off = make_engine(0.0);
    ExecStats off_total;
    const std::vector<double> off_ms = measure(*off, &off_total);
    auto on = make_engine(2.0);  // > 1: race whenever a runner-up exists
    ExecStats on_total;
    const std::vector<double> on_ms = measure(*on, &on_total);

    const double wasted = static_cast<double>(
        on_total.speculative_work_wasted_rows);
    const double useful = static_cast<double>(on_total.answer_objects);
    const double wasted_fraction =
        wasted > 0.0 ? wasted / (wasted + useful) : 0.0;
    const double p50_off = pct(off_ms, 0.50), p99_off = pct(off_ms, 0.99);
    const double p50_on = pct(on_ms, 0.50), p99_on = pct(on_ms, 0.99);

    std::printf(
        "plan race (%zu queries x %d reps, k=%zu, %d threads): p50 "
        "%.3f -> %.3f ms, p99 %.3f -> %.3f ms (%.2fx); %llu raced, "
        "%llu runner-up wins, wasted-work fraction %.2f\n",
        rf.queries.size(), reps, k, threads, p50_off, p50_on, p99_off,
        p99_on, p99_on > 0.0 ? p99_off / p99_on : 0.0,
        static_cast<unsigned long long>(on_total.plans_raced),
        static_cast<unsigned long long>(on_total.race_wins_by_runnerup),
        wasted_fraction);

    Json& race = out.Set("plan_race", Json::Object());
    race.Set("queries", rf.queries.size());
    race.Set("reps", reps);
    race.Set("k", k);
    race.Set("threads", threads);
    race.Set("p50_ms_speculation_off", p50_off);
    race.Set("p99_ms_speculation_off", p99_off);
    race.Set("p50_ms_speculation_on", p50_on);
    race.Set("p99_ms_speculation_on", p99_on);
    race.Set("p99_speedup", p99_on > 0.0 ? p99_off / p99_on : 0.0);
    race.Set("plans_raced", on_total.plans_raced);
    race.Set("race_wins_by_runnerup", on_total.race_wins_by_runnerup);
    race.Set("speculative_work_wasted_rows",
             on_total.speculative_work_wasted_rows);
    race.Set("replans_triggered", on_total.replans_triggered);
    race.Set("race_loser_abort_ms_total", on_total.race_loser_abort_ms);
    race.Set("wasted_work_fraction", wasted_fraction);
    // The speculating engine's calibration log: feed these records to
    // scripts/fit_estimator_correction.py to close the estimation loop
    // (the poisoned classes fit multipliers far from 1.0).
    out.Set("calibration", CalibrationLogToJson(on->calibration_log()));

    for (const bool speculation_on : {false, true}) {
      const std::vector<double>& ms = speculation_on ? on_ms : off_ms;
      MicroResult r;
      r.name = StrFormat("plan_race/speculation:%s",
                         speculation_on ? "on" : "off");
      r.iterations = ms.size();
      for (double m : ms) r.total_ms += m;
      r.ns_per_iter = r.total_ms * 1e6 / static_cast<double>(ms.size());
      results.push_back(std::move(r));
    }
  }

  const std::vector<int> widths = {38, 12, 14, 16};
  PrintRow({"benchmark", "iters", "ns/iter", "items/s"}, widths);
  PrintRule(widths);
  Json& benchmarks = out.Set("benchmarks", Json::Array());
  for (const MicroResult& r : results) {
    PrintRow({r.name,
              StrFormat("%llu", static_cast<unsigned long long>(r.iterations)),
              StrFormat("%.1f", r.ns_per_iter),
              r.items_per_iter == 0 ? std::string("-")
                                    : StrFormat("%.3g", r.items_per_second)},
             widths);
    Json& j = benchmarks.Push(Json::Object());
    j.Set("name", r.name);
    j.Set("iterations", r.iterations);
    j.Set("total_ms", r.total_ms);
    j.Set("ns_per_iter", r.ns_per_iter);
    if (r.items_per_iter > 0) {
      j.Set("items_per_iter", r.items_per_iter);
      j.Set("items_per_second", r.items_per_second);
    }
    if (r.speedup_vs_serial > 0.0) {
      j.Set("speedup_vs_serial", r.speedup_vs_serial);
    }
  }
}

}  // namespace
}  // namespace specqp::bench

int main(int argc, char** argv) {
  return specqp::bench::BenchMain(argc, argv, "micro_operators",
                                  &specqp::bench::Run);
}
