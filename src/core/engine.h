#ifndef SPECQP_CORE_ENGINE_H_
#define SPECQP_CORE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/admission.h"
#include "core/estimator.h"
#include "core/plan_executor.h"
#include "core/planner.h"
#include "core/query_plan.h"
#include "core/request.h"
#include "core/speculation.h"
#include "query/query.h"
#include "rdf/mmap_store.h"
#include "rdf/posting_list.h"
#include "rdf/sharded_store.h"
#include "rdf/triple_store.h"
#include "relax/relaxation_index.h"
#include "stats/catalog.h"
#include "stats/selectivity.h"
#include "topk/exec_context.h"
#include "topk/exec_stats.h"
#include "topk/scored_row.h"
#include "util/result.h"
#include "util/retry.h"
#include "util/thread_pool.h"

namespace specqp {

struct BatchStats;  // core/batch_executor.h

// Resolves a requested thread count: values >= 1 are clamped to [1, 256];
// values <= 0 defer to the SPECQP_THREADS environment variable (absent or
// unparsable -> 1, i.e. serial). The environment is read exactly once per
// process and memoised — the resolved value is then stored per Engine at
// construction — so mid-run env mutation cannot skew later engines and
// concurrent Submit never races a getenv.
int ResolveNumThreads(int requested);

struct EngineOptions {
  // The paper uses exact join selectivities (footnote 3).
  SelectivityEstimator::Mode selectivity_mode =
      SelectivityEstimator::Mode::kExact;
  // The paper's two-bucket model; kExactGrid is the multi-bucket ablation.
  ExpectedScoreEstimator::Model estimator_model =
      ExpectedScoreEstimator::Model::kTwoBucket;
  // 80/20 rule boundary for all histograms.
  double head_fraction = 0.8;
  // Grid resolution for the kExactGrid estimator.
  double grid_delta = 1.0 / 512.0;
  // Execution concurrency (partitioned rank joins): 0 = $SPECQP_THREADS
  // (default 1), 1 = serial, N > 1 = N-way. It is also the number of
  // admission dispatch slots, i.e. of windows served at once. Answers are
  // identical at any setting; only throughput changes.
  int num_threads = 0;
  // Posting-list cache budget in bytes (approximate, LRU-evicted);
  // 0 = unbounded.
  size_t cache_budget_bytes = 0;
  // Cost-aware (GreedyDual) cache victim selection: expensive-to-rebuild
  // posting lists outlive cheaper, more recently used ones. Only matters
  // with a non-zero cache budget. See PostingListCache.
  bool cache_cost_aware = false;
  // Minimum total entries of the posting lists a query's tree scans (its
  // patterns' lists plus, for each relaxed pattern, every relaxation's and
  // chain hop's) before the executor builds a partitioned parallel tree.
  // The default sits at the measured crossover (docs/ARCHITECTURE.md,
  // "Parallel rank joins").
  size_t parallel_min_rows = 1600;
  // Streaming admission (Engine::Submit): an open batch window closes once
  // it holds admission_max_batch requests; max_batch <= 1 turns
  // cross-request batching off (every Submit dispatches alone). Otherwise
  // a free dispatch slot (there are num_threads of them) takes the oldest
  // open window once it has waited admission_max_delay_ms: how long a
  // window may wait for company while a slot is free. At the default 0 a
  // window grows only while every slot is busy.
  size_t admission_max_batch = 16;
  double admission_max_delay_ms = 0.0;
  // Speculative plan racing (core/speculation.h): when PLANGEN's
  // plan-level confidence falls below this threshold, the primary plan and
  // the runner-up race on the engine pool and the first usable result
  // wins. 0 (default) disables racing; confidence lives in [0, 1], so any
  // threshold > 1 forces a race whenever a runner-up exists. Requires
  // num_threads >= 2 (a race needs a pool to share); answers are identical
  // with racing on or off — the certificate gate makes the runner-up's
  // result usable only when it provably matches the primary's. Only a
  // batch of one distinct query races (core/batch_executor.h).
  double speculate_threshold = 0.0;
  // Mid-query re-planning: once a leaf operator has emitted more than this
  // factor times its estimated cardinality, the (serial) execution stops,
  // re-orders the plan by actual posting sizes, and restarts on the warm
  // caches — at most once per execution. Values <= 1 disable adaptivity.
  // Only serial trees are watched: a query that runs partitioned (see
  // parallel_min_rows) is never re-planned.
  double replan_divergence_factor = 0.0;
  // Cadence of the divergence checkpoints, in interrupt polls (roughly a
  // small multiple of rows pulled).
  uint64_t replan_check_rows = 4096;
  // Estimate-calibration loop (stats/calibration.h): path of a correction
  // table fitted by scripts/fit_estimator_correction.py, loaded into the
  // statistics catalog at construction (empty = uncalibrated; a missing
  // file is treated as empty). Every answered Submit also appends to the
  // engine's in-memory CalibrationLog, bounded by calibration_log_capacity
  // records per kind.
  std::string calibration_path;
  size_t calibration_log_capacity = 4096;
  // Engine::OpenFromPath only: memory-map the store file (zero-copy
  // MmapStore view, O(ms) open) instead of loading it into an owned store
  // through LoadStore. Answers are identical either way; only open
  // latency and memory residency change.
  bool mmap = true;
  // Engine::OpenFromPath only: fully verify every section of a mapped
  // store (checksums + value ranges + ordering invariants) before
  // serving, instead of the default — eager metadata sections, lazy
  // O(triples) bulk sections. The default trusts the file's bulk bytes;
  // set this for stores from untrusted sources (costs one pass over the
  // file, still far below a LoadStore).
  bool mmap_verify_all = false;

  // --- fault tolerance (docs/ARCHITECTURE.md "Failure model") --------------

  // Serve PARTIAL answers from the surviving shards when some shards of a
  // bundle are quarantined (failed at open, lost mapped pages at runtime,
  // drew an injected fault). Degraded responses carry partial = true and
  // the shards_failed/shards_total ledger in their stats. Off (default):
  // strict mode — a bundle with quarantined shards answers every query
  // kUnavailable until reopened. Implies allow_quarantine.
  bool degraded_reads = false;
  // Quarantine failing shards instead of failing the whole bundle open /
  // crashing the read path, WITHOUT serving degraded answers (strict
  // serving keeps returning kUnavailable while any shard is out). Useful
  // when an operator wants fail-static behaviour with fault isolation.
  // degraded_reads = true implies this.
  bool allow_quarantine = false;
  // Deterministic fault plan (util/fault_injector.h grammar, e.g.
  // "seed=7;shard.open.3=1@2;block.decode=0.01"), configured process-wide
  // before the store opens, unless the injector already runs it. Empty
  // (default): the injector is disarmed and every probe compiles down to
  // one relaxed atomic load.
  std::string fault_plan;
  // Admission-side overload shedding: reject new Submits with
  // kResourceExhausted (plus a retry_after_ms hint) once this many
  // requests are queued in the admission controller. 0 = never shed.
  size_t admission_max_queue = 0;
  // Deadline-aware shedding: reject a request at submit time when its
  // deadline falls within admission_max_delay_ms of now — the request
  // would only be DOA'd at dispatch anyway, so shed it before it occupies
  // queue space. It compares against the configured delay only, not the
  // time a window may wait for a busy slot; at the default delay of 0 it
  // sheds nothing the dead-on-arrival check does not already reject.
  bool admission_deadline_shed = false;
  // The retry-after hint attached to queue-full rejections.
  double admission_retry_after_ms = 5.0;
};

// Facade wiring the whole stack together: posting lists, statistics,
// selectivities, PLANGEN, and plan execution over a knowledge graph plus a
// relaxation rule set (both owned by the caller and shared across engines
// so baselines run against identical data and caches are comparable).
//
// The blessed API is request-shaped (core/request.h):
//
//   Submit(QueryRequest)  -> std::future<QueryResponse>   // execute
//   Explain(QueryRequest) -> QueryResponse                // plan only
//
// Every entry point is safe to call from any number of threads. Submit
// serves each request through one window step: windowed requests
// accumulate into batch windows that num_threads dispatch slots serve
// concurrently, each taking a window as soon as it is free
// (EngineOptions::admission_*), so online traffic gets the shared-scan
// amortisation whenever requests queue; a kImmediate request is a window
// of one served on the calling thread. Pre-assembled
// batches go through BatchExecutor directly (core/batch_executor.h). All
// paths run the same private request steps and fill the same
// QueryResponse; the planning memos they share are locked.
class Engine {
 public:
  Engine(const TripleStore* store, const RelaxationIndex* rules,
         const EngineOptions& options = {});

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // A store opened from disk together with the engine serving it: the
  // bundle owns the storage backend (mapped file or parsed store), so it
  // must outlive every reference into the engine. Movable; the engine's
  // internal pointers stay valid because the store lives behind a
  // unique_ptr either way.
  struct Opened {
    std::unique_ptr<MmapStore> mapped;      // mmap fast path
    std::unique_ptr<ShardedStore> sharded;  // SQPBNDL1 bundle facade
    std::unique_ptr<TripleStore> parsed;    // LoadStore (mmap = false)
    std::unique_ptr<Engine> engine;

    const TripleStore& store() const {
      if (sharded != nullptr) return sharded->store();
      return mapped != nullptr ? mapped->store() : *parsed;
    }
    bool mmap_backed() const {
      return mapped != nullptr || sharded != nullptr;
    }
    size_t bytes_mapped() const {
      if (sharded != nullptr) return sharded->bytes_mapped();
      return mapped != nullptr ? mapped->bytes_mapped() : 0;
    }
  };

  // Open-from-path fast path: loads `store_path` (a SQPSTOR3 store file or
  // a sharded SQPBNDL1 bundle directory/manifest; see docs/FORMATS.md) and
  // builds an engine over it. With options.mmap, a store file is
  // memory-mapped — the open does no per-triple parsing, its small
  // metadata sections are CRC-verified eagerly, the bulk sections lazily,
  // and its per-predicate posting lists are served as zero-copy block
  // directories — and the engine's statistics catalog is pre-seeded from
  // the file's snapshot when its head_fraction matches the options.
  // Without it, the file goes through LoadStore. `rules` stays
  // caller-owned and must outlive the returned bundle.
  [[nodiscard]] static Result<Opened> OpenFromPath(const std::string& store_path,
                                     const RelaxationIndex* rules,
                                     const EngineOptions& options = {});

  // Submits one request for execution. With the default windowed admission
  // the call never blocks on execution: the request is parsed, checked
  // (parse error, k == 0, and an already-cancelled token all complete the
  // future immediately with the terminal status), and queued into the
  // admission window for its (k, strategy); the future completes once the
  // window has been served. Up to num_threads windows are in service at
  // once, so the futures of different windows may complete in any order,
  // not in submit order. With QueryRequest::Admission::kImmediate the
  // request is served on the calling thread as a window of one, and the
  // returned future is already ready. Thread-safe either way.
  std::future<QueryResponse> Submit(QueryRequest request);

  // Plans `request` without executing it: the response carries the plan,
  // the PLANGEN diagnostics (kSpecQp), and plan_ms, with no rows. The
  // blessed plan-introspection entry point. Runs on the calling thread
  // under the request's cancellation token and deadline: a stopped plan
  // comes back with the terminal status. Thread-safe.
  QueryResponse Explain(const QueryRequest& request);

  // The streaming admission layer behind windowed Submit (created on first
  // use); exposed for Flush() and its Stats counters.
  AdmissionController& admission();

  // Pre-materialises posting lists and statistics for a query and its
  // relaxations — the paper's warm-cache setting (section 4.4) separates
  // this cost from query runtimes.
  void Warm(const Query& query);

  const TripleStore& store() const { return *store_; }
  const RelaxationIndex& rules() const { return *rules_; }
  PostingListCache& postings() { return postings_; }
  StatisticsCatalog& catalog() { return catalog_; }
  // The engine's calibration log: every answered Submit appends its
  // (estimate, actual) observations here; bench runs dump it into their
  // --json artifacts for scripts/fit_estimator_correction.py.
  const CalibrationLog& calibration_log() const { return calibration_log_; }
  const EngineOptions& options() const { return options_; }
  // Resolved execution concurrency (>= 1); the pool is shared by every
  // execution on this engine.
  int num_threads() const { return num_threads_; }
  // The engine's thread pool (null when serial).
  ThreadPool* pool() const { return pool_.get(); }

 private:
  // Both reach the engine only through the request steps below and the
  // public accessors above.
  friend class BatchExecutor;
  friend class AdmissionController;

  // --- the request steps (docs/ARCHITECTURE.md "Request lifecycle") -------
  // Every entry point composes these: Explain (Resolve, Plan), Submit
  // (Resolve, then ServeWindow — on the calling thread for kImmediate, on
  // an admission dispatch slot for kWindow) and BatchExecutor (Plan, Run).

  // The window step: serves one window of queries (moved from) for `k`
  // and `strategy`, one response per query. Runs the preflight once;
  // queries it refuses, or whose interrupt (may be null) has stopped, skip
  // execution, and the rest run as one BatchExecutor batch (`batch_stats`
  // optional). Then Finish per response, and the calibration log per
  // answered one. The caller stamps tag and admission diagnostics.
  std::vector<QueryResponse> ServeWindow(
      size_t k, Strategy strategy, std::span<Query> queries,
      std::span<const ExecInterrupt* const> interrupts,
      BatchStats* batch_stats);

  // Echoes the request into `response` (tag, strategy, k), checks k >= 1,
  // and parses text against the store dictionary. Returns the query to run
  // — the request's own when it is already parsed (never copied), else
  // `*parsed` — or null with response->status set.
  const Query* Resolve(const QueryRequest& request, Query* parsed,
                       QueryResponse* response) const;
  // Plans `query` for response->strategy and response->k: PLANGEN with its
  // diagnostics for kSpecQp, the static all-singletons (kTrinit) or
  // all-join-group (kNoRelax) plan otherwise. Sets stats.plan_ms.
  void Plan(const Query& query, QueryResponse* response);
  // Executes response->plan under `ctx` into response->rows under the
  // re-planning policy of EngineOptions, folds the partition counters,
  // sets stats.exec_ms, and trims chain-relaxation scratch slots. With a
  // pool in `ctx`, a low-confidence kSpecQp plan races its runner-up on
  // it. `executed_plan` receives the plan that produced the rows.
  void Run(const Query& query, ExecContext* ctx, QueryResponse* response,
           QueryPlan* executed_plan);

  // --- fault-tolerant serving (docs/ARCHITECTURE.md "Failure model") ------
  // Run before execution: sweeps latched mapping faults on a sharded
  // backend, drops the posting cache, the statistics catalog and the
  // selectivity memos built against a shard set that no longer serves
  // (once per fault-epoch advance), fills the response's
  // shards_failed/shards_total ledger, and decides whether this engine may
  // answer right now — Ok (fully serving), Ok with response->partial set
  // (degraded_reads and some shards out), or kUnavailable (strict mode
  // with shards out, or every shard out). `epoch_out` receives the fault
  // epoch the decision was made under. No-op Ok for non-sharded stores.
  [[nodiscard]] Status PreflightServing(QueryResponse* response, uint64_t* epoch_out);
  // Settles a response after execution. A stopped `interrupt` (may be
  // null) wins: the rows are dropped for its StopStatus. Otherwise, unless
  // the response already failed, a quarantine that landed mid-query (epoch
  // moved past `epoch_before`) or a latched in-flight fault
  // (stats.store_faults > 0) invalidates the answer — it may mix pre- and
  // post-fault shard sets — and it becomes kIoError with the refreshed
  // shard ledger.
  void Finish(const ExecInterrupt* interrupt, uint64_t epoch_before,
              QueryResponse* response);

  const TripleStore* store_;
  const RelaxationIndex* rules_;
  EngineOptions options_;
  int num_threads_;
  std::unique_ptr<ThreadPool> pool_;  // null when serial

  PostingListCache postings_;
  StatisticsCatalog catalog_;
  SelectivityEstimator selectivity_;
  ExpectedScoreEstimator estimator_;
  Planner planner_;
  PlanExecutor executor_;
  SpeculativeExecutor speculative_;
  CalibrationLog calibration_log_;

  // Highest store fault epoch this engine has reconciled its caches with
  // (posting lists + statistics built against a retired shard set are
  // dropped exactly once per epoch advance, CAS-guarded).
  std::atomic<uint64_t> seen_fault_epoch_{0};

  // Declared last: destroyed first, so the admission slots drain all
  // in-flight windows before any engine internals go away.
  std::once_flag admission_once_;
  std::unique_ptr<AdmissionController> admission_;
};

// Submits `request` and blocks for the response, retrying retryable
// terminal statuses (overload sheds, degraded-store kUnavailable windows,
// transient kIoError) under `policy`. Honours the response's
// retry_after_ms hint — the actual sleep is the larger of the hint and
// the policy's own backoff for that attempt, capped at the policy's
// max_backoff — and gives up immediately on a shed whose hint is 0
// (retrying cannot help, e.g. the request's own deadline is unmeetable).
// The request is copied per attempt, so the caller's QueryRequest is
// reusable afterwards.
QueryResponse SubmitWithRetry(Engine& engine, const QueryRequest& request,
                              const RetryPolicy& policy = RetryPolicy());

}  // namespace specqp

#endif  // SPECQP_CORE_ENGINE_H_
