#include "core/engine.h"

#include <algorithm>
#include <cstdlib>
#include <thread>
#include <utility>

#include "core/batch_executor.h"
#include "query/parser.h"
#include "rdf/store_io.h"
#include "relax/expansion.h"
#include "util/fault_injector.h"
#include "util/logging.h"
#include "util/stop_probe.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace specqp {

namespace {

// Installs EngineOptions::fault_plan process-wide, unless the injector
// already runs it: Configure would re-arm its capped sites and reset the
// counts an open just made.
void ConfigureFaultPlan(const std::string& plan) {
  if (plan.empty()) return;
  FaultInjector& injector = FaultInjector::Global();
  if (injector.plan() == StripWhitespace(plan)) return;
  const Status configured = injector.Configure(plan);
  if (!configured.ok()) {
    SPECQP_LOG(Warning) << "ignoring malformed fault plan: "
                        << configured.ToString();
  }
}

}  // namespace

int ResolveNumThreads(int requested) {
  if (requested >= 1) return std::min(requested, 256);
  // The environment is consulted exactly once per process (thread-safe
  // static init): every engine constructed with num_threads <= 0 sees the
  // same resolved value, mid-run setenv("SPECQP_THREADS") cannot skew
  // later engines, and concurrent Submit paths never race a getenv.
  static const int env_threads = [] {
    const char* env = std::getenv("SPECQP_THREADS");
    if (env == nullptr) return 1;
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end == env || *end != '\0' || parsed < 1) return 1;
    return static_cast<int>(std::min(parsed, 256L));
  }();
  return env_threads;
}

Engine::Engine(const TripleStore* store, const RelaxationIndex* rules,
               const EngineOptions& options)
    : store_(store),
      rules_(rules),
      options_(options),
      num_threads_(ResolveNumThreads(options.num_threads)),
      pool_(num_threads_ > 1
                ? std::make_unique<ThreadPool>(
                      static_cast<size_t>(num_threads_) - 1)
                : nullptr),
      postings_(store, options.cache_budget_bytes, options.cache_cost_aware),
      catalog_(store, &postings_, options.head_fraction),
      selectivity_(store, options.selectivity_mode),
      estimator_(&catalog_, &selectivity_, options.estimator_model,
                 options.grid_delta),
      planner_(&estimator_, rules),
      executor_(store, &postings_, rules,
                PlanExecutor::Options{options.parallel_min_rows}),
      speculative_(&executor_, store, rules, &estimator_),
      calibration_log_(options.calibration_log_capacity) {
  SPECQP_CHECK(store_ != nullptr && rules_ != nullptr);
  SPECQP_CHECK(store_->finalized()) << "Engine requires a finalized store";
  ConfigureFaultPlan(options_.fault_plan);
  if (!options_.calibration_path.empty()) {
    // Before the first GetStats, so every estimate this engine ever makes
    // is corrected consistently (including OpenFromPath's Preload, which
    // runs after construction and corrects on the way in).
    catalog_.LoadCalibration(options_.calibration_path);
  }
}

Result<Engine::Opened> Engine::OpenFromPath(const std::string& store_path,
                                            const RelaxationIndex* rules,
                                            const EngineOptions& options) {
  ConfigureFaultPlan(options.fault_plan);
  if (IsBundlePath(store_path)) {
    // Sharded bundle (SQPBNDL1): N cooperating mapped shards behind one
    // facade. Per-shard stats snapshots describe shard-local subsets, not
    // the union, so the catalog is never preloaded from a bundle.
    ShardedStore::Options open_options;
    if (options.mmap_verify_all) {
      open_options.verify = MmapStore::Verify::kEager;
    }
    // Degraded serving implies shard quarantine; strict-with-isolation is
    // the explicit allow_quarantine knob.
    open_options.allow_quarantine =
        options.allow_quarantine || options.degraded_reads;
    Opened opened;
    SPECQP_ASSIGN_OR_RETURN(opened.sharded,
                            ShardedStore::Open(store_path, open_options));
    opened.engine = std::make_unique<Engine>(&opened.store(), rules, options);
    return opened;
  }
  Opened opened;
  if (options.mmap) {
    MmapStore::Options open_options;
    if (options.mmap_verify_all) {
      open_options.verify = MmapStore::Verify::kEager;
    }
    SPECQP_ASSIGN_OR_RETURN(opened.mapped,
                            MmapStore::Open(store_path, open_options));
    // Metadata sections are dereferenced eagerly by planner/dictionary
    // lookups; check them up front (no-op after an eager open). The
    // O(triples) bulk sections stay lazy unless mmap_verify_all asked
    // for the full pass.
    const Status verified = opened.mapped->VerifyMetadataSections();
    if (!verified.ok()) return verified;
  } else {
    SPECQP_ASSIGN_OR_RETURN(TripleStore parsed, LoadStore(store_path));
    opened.parsed = std::make_unique<TripleStore>(std::move(parsed));
  }
  opened.engine = std::make_unique<Engine>(&opened.store(), rules, options);
  if (opened.mapped != nullptr && opened.mapped->has_stats() &&
      opened.mapped->stats_head_fraction() == options.head_fraction) {
    opened.engine->catalog().Preload(opened.mapped->stats_entries());
  }
  return opened;
}

AdmissionController& Engine::admission() {
  std::call_once(admission_once_, [this] {
    admission_ = std::make_unique<AdmissionController>(this);
  });
  return *admission_;
}

std::future<QueryResponse> Engine::Submit(QueryRequest request) {
  if (request.admission == QueryRequest::Admission::kWindow) {
    return admission().Submit(std::move(request));
  }
  // kImmediate: a window of one, served on the calling thread.
  QueryResponse response;
  Query parsed;
  if (Resolve(request, &parsed, &response) != nullptr) {
    Query& query = request.query.has_value() ? *request.query : parsed;
    ExecInterrupt armed;
    const ExecInterrupt* interrupt =
        ArmInterrupt(request, &armed) ? &armed : nullptr;
    response = std::move(ServeWindow(request.k, request.strategy, {&query, 1},
                                     {&interrupt, 1}, nullptr)[0]);
    response.tag = std::move(request.tag);
  }
  std::promise<QueryResponse> promise;
  promise.set_value(std::move(response));
  return promise.get_future();
}

QueryResponse Engine::Explain(const QueryRequest& request) {
  QueryResponse response;
  Query parsed;
  const Query* query = Resolve(request, &parsed, &response);
  if (query == nullptr) return response;
  ExecInterrupt armed;
  const ExecInterrupt* interrupt =
      ArmInterrupt(request, &armed) ? &armed : nullptr;
  ScopedStopProbe stop_probe = InstallStopProbe(interrupt);
  Plan(*query, &response);
  if (Expired(interrupt)) response.status = StopStatus(interrupt->cause());
  return response;
}

std::vector<QueryResponse> Engine::ServeWindow(
    size_t k, Strategy strategy, std::span<Query> queries,
    std::span<const ExecInterrupt* const> interrupts,
    BatchStats* batch_stats) {
  SPECQP_CHECK(interrupts.size() == queries.size());
  // Serving preflight, once for the whole window (every request shares
  // the store snapshot): fault sweep, strict/degraded decision, stale
  // cache reconciliation. A refusal (kUnavailable) terminates every
  // request in the window without executing — individual cancellations
  // still win in Finish.
  QueryResponse serving;
  uint64_t fault_epoch = 0;
  const Status serving_status = PreflightServing(&serving, &fault_epoch);

  // Requests already stopped (cancelled while queued, deadline expired in
  // the window) terminate without executing; the rest run as one batch.
  std::vector<QueryResponse> responses(queries.size());
  std::vector<size_t> live;  // indices into queries
  std::vector<Query> live_queries;
  std::vector<const ExecInterrupt*> live_interrupts;
  for (size_t i = 0; i < queries.size(); ++i) {
    responses[i].status = serving_status;
    if (!serving_status.ok() || Expired(interrupts[i])) continue;
    live.push_back(i);
    live_queries.push_back(std::move(queries[i]));
    live_interrupts.push_back(interrupts[i]);
  }
  BatchExecutor batch(this);
  if (!live.empty()) {
    std::vector<QueryResponse> ran = batch.Execute(
        live_queries, k, strategy, batch_stats, live_interrupts);
    for (size_t j = 0; j < live.size(); ++j) {
      responses[live[j]] = std::move(ran[j]);
    }
  }

  for (size_t i = 0; i < queries.size(); ++i) {
    QueryResponse& response = responses[i];
    response.strategy = strategy;
    response.k = k;
    // The window's degraded-read ledger rides on every response; Finish
    // drops aborted answers and invalidates one a mid-window fault may
    // have mixed (kIoError).
    response.partial = serving.partial;
    response.stats.shards_failed = serving.stats.shards_failed;
    response.stats.shards_total = serving.stats.shards_total;
    Finish(interrupts[i], fault_epoch, &response);
  }

  // Calibration loop, answered requests only (an aborted or faulted run's
  // observations are censored). The records feed
  // scripts/fit_estimator_correction.py; estimated_m is post-correction, so
  // a fitted table converging to 1.0 multipliers means the loop closed.
  // actual_m is the store's match count, which is the size of the key's
  // list: the batch has dropped its pins by now, so asking the cache
  // would rebuild any list evicted since, uncounted, and evict more.
  for (size_t j = 0; j < live.size(); ++j) {
    const QueryResponse& response = responses[live[j]];
    if (!response.ok()) continue;
    for (const TriplePattern& q : live_queries[j].patterns()) {
      const PatternKey key = q.Key();
      CalibrationPatternRecord record;
      record.signature = PatternSignature(*store_, key);
      record.estimated_m = estimator_.PatternCardinality(key);
      record.actual_m = static_cast<double>(store_->CountMatches(key));
      calibration_log_.RecordPattern(std::move(record));
    }
    CalibrationQueryRecord summary;
    summary.estimated_cardinality = response.diagnostics.cardinality_estimate;
    summary.observed_join_results = response.rows.size();
    summary.plan = batch.executed_plans()[j].ToString();
    summary.raced = response.stats.plans_raced > 0;
    summary.runner_up_won = response.stats.race_wins_by_runnerup > 0;
    calibration_log_.RecordQuery(std::move(summary));
  }
  return responses;
}

const Query* Engine::Resolve(const QueryRequest& request, Query* parsed,
                             QueryResponse* response) const {
  response->tag = request.tag;
  response->strategy = request.strategy;
  response->k = request.k;
  if (request.k < 1) {
    response->status = Status::InvalidArgument("k must be >= 1");
    return nullptr;
  }
  if (request.query.has_value()) return &*request.query;
  auto result = ParseQuery(request.text, store_->dict());
  if (!result.ok()) {
    response->status = result.status();
    return nullptr;
  }
  *parsed = std::move(result).value();
  return parsed;
}

void Engine::Plan(const Query& query, QueryResponse* response) {
  WallTimer plan_timer;
  switch (response->strategy) {
    case Strategy::kSpecQp:
      response->plan =
          planner_.Plan(query, response->k, &response->diagnostics);
      break;
    case Strategy::kTrinit:
      response->plan = QueryPlan::TrinitPlan(query.num_patterns());
      break;
    case Strategy::kNoRelax:
      response->plan = QueryPlan::NoRelaxationsPlan(query.num_patterns());
      break;
  }
  response->stats.plan_ms = plan_timer.ElapsedMillis();
}

void Engine::Run(const Query& query, ExecContext* ctx,
                 QueryResponse* response, QueryPlan* executed_plan) {
  WallTimer exec_timer;
  const AdaptivePolicy adaptive{options_.replan_divergence_factor,
                                options_.replan_check_rows};
  // Plan racing: only the Spec-QP strategy produces a runner-up (the
  // primary with its least-confident PLANGEN decision flipped), and a race
  // needs the pool to time-share.
  const PlanDiagnostics& diag = response->diagnostics;
  const bool race = ctx->pool() != nullptr &&
                    response->strategy == Strategy::kSpecQp &&
                    options_.speculate_threshold > 0.0 &&
                    diag.has_runner_up && diag.least_confident_pattern >= 0 &&
                    diag.plan_confidence < options_.speculate_threshold;
  if (race) {
    const double bound = speculative_.CertificateBound(
        query, static_cast<size_t>(diag.least_confident_pattern));
    response->rows =
        speculative_.Race(query, response->plan, diag.runner_up, bound,
                          response->k, adaptive, ctx, executed_plan);
  } else {
    response->rows = speculative_.RunAdaptive(
        query, response->plan, response->k, adaptive, ctx, executed_plan);
    ctx->MergePartitionStats();
  }
  response->stats.exec_ms = exec_timer.ElapsedMillis();

  // Chain relaxations execute with trailing scratch slots for their fresh
  // variables (always kInvalidTermId at the root); trim rows back to the
  // query's own variables.
  for (ScoredRow& row : response->rows) {
    if (row.bindings.size() > query.num_vars()) {
      row.bindings.resize(query.num_vars());
    }
  }
}

Status Engine::PreflightServing(QueryResponse* response,
                                uint64_t* epoch_out) {
  const ShardedTripleSource* source = store_->sharded_source();
  if (source == nullptr) {
    if (epoch_out != nullptr) *epoch_out = 0;
    return Status::Ok();
  }
  source->PollFaults();
  const uint64_t epoch = source->FaultEpoch();
  if (epoch_out != nullptr) *epoch_out = epoch;
  // Posting lists, statistics and join counts computed against a retired
  // shard set describe answers the store can no longer produce; drop them
  // exactly once per epoch advance (CAS-guarded — concurrent preflights
  // race to reconcile, only the winner clears).
  uint64_t seen = seen_fault_epoch_.load(std::memory_order_acquire);
  while (seen < epoch) {
    if (seen_fault_epoch_.compare_exchange_weak(seen, epoch,
                                                std::memory_order_acq_rel)) {
      postings_.Clear();
      catalog_.Clear();
      selectivity_.Clear();
      break;
    }
  }
  const uint32_t failed = source->ShardsFailed();
  const uint32_t total = source->ShardsTotal();
  response->stats.shards_failed = failed;
  response->stats.shards_total = total;
  if (failed == 0) return Status::Ok();
  if (failed >= total) {
    return Status::Unavailable("every shard of the store is quarantined");
  }
  if (!options_.degraded_reads) {
    return Status::Unavailable(
        StrFormat("%u of %u shards quarantined and degraded reads are "
                  "disabled",
                  failed, total));
  }
  response->partial = true;  // answers cover the surviving shards only
  return Status::Ok();
}

void Engine::Finish(const ExecInterrupt* interrupt, uint64_t epoch_before,
                    QueryResponse* response) {
  if (Expired(interrupt)) {
    // Aborted (or terminally late): no partial results are returned.
    response->rows.clear();
    response->partial = false;
    response->status = StopStatus(interrupt->cause());
    return;
  }
  if (!response->status.ok()) return;
  const ShardedTripleSource* source = store_->sharded_source();
  bool faulted = response->stats.store_faults > 0;  // any backend
  if (source != nullptr) {
    source->PollFaults();
    faulted = faulted || source->FaultEpoch() != epoch_before;
    if (faulted) {
      // Refresh the ledger so the caller sees the post-fault serving
      // state.
      response->stats.shards_failed = source->ShardsFailed();
      response->stats.shards_total = source->ShardsTotal();
    }
  }
  if (faulted) {
    response->rows.clear();
    response->partial = false;
    response->status = Status::IoError(
        "backing store faulted during execution; the answer may mix pre- "
        "and post-fault data — retry to answer from the surviving state");
  }
}

void Engine::Warm(const Query& query) {
  // Warm-only traversal: the pins returned by Get are dropped on purpose —
  // the point is to populate the cache, not to hold the lists.
  for (const TriplePattern& q : query.patterns()) {
    const PatternKey key = q.Key();
    (void)postings_.Get(key);
    catalog_.GetStats(key);
    const PatternExpansion expansion = ExpandPattern(*rules_, key);
    for (const PatternKey& relaxed : expansion.relaxed) {
      (void)postings_.Get(relaxed);
      catalog_.GetStats(relaxed);
    }
    for (const PatternKey& hop : expansion.chain_hops) {
      (void)postings_.Get(hop);
      catalog_.GetStats(hop);
    }
  }
}

QueryResponse SubmitWithRetry(Engine& engine, const QueryRequest& request,
                              const RetryPolicy& policy) {
  const int max_attempts = policy.max_attempts < 1 ? 1 : policy.max_attempts;
  QueryResponse response;
  for (int attempt = 1;; ++attempt) {
    response = engine.Submit(QueryRequest(request)).get();
    if (response.status.ok() ||
        !policy.IsRetryable(response.status.code()) ||
        attempt >= max_attempts) {
      return response;
    }
    // A shed whose hint is 0 says retrying cannot help (the request's own
    // deadline is unmeetable); stop burning attempts on it.
    if (response.status.code() == StatusCode::kResourceExhausted &&
        response.retry_after_ms <= 0.0) {
      return response;
    }
    const auto hint = std::chrono::microseconds(
        static_cast<int64_t>(std::max(0.0, response.retry_after_ms) * 1000.0));
    std::this_thread::sleep_for(policy.BackoffFor(attempt, hint));
  }
}

}  // namespace specqp
