#include "core/engine.h"

#include <algorithm>
#include <cstdlib>
#include <thread>
#include <utility>

#include "query/parser.h"
#include "rdf/store_io.h"
#include "relax/expansion.h"
#include "topk/top_k.h"
#include "util/fault_injector.h"
#include "util/logging.h"
#include "util/stop_probe.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace specqp {

namespace {

// Bridges an ExecInterrupt across the rdf/topk layer boundary: installed
// as the thread-local stop probe for the scope of one execution, so store
// internals (ShardedStore::Match, posting-list builds) can poll
// cancellation/deadline without depending on the topk layer.
bool InterruptStopProbe(const void* ctx) {
  const auto* interrupt = static_cast<const ExecInterrupt*>(ctx);
  return interrupt->Stopped() || interrupt->CheckDeadline();
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
      speculative_(&executor_, &postings_, rules, &estimator_),
      calibration_log_(options.calibration_log_capacity) {
  SPECQP_CHECK(store_ != nullptr && rules_ != nullptr);
  SPECQP_CHECK(store_->finalized()) << "Engine requires a finalized store";
  if (!options_.fault_plan.empty()) {
    // Process-wide and idempotent (OpenFromPath may have configured the
    // same plan already, before the store open, so open-path probes fire).
    const Status configured =
        FaultInjector::Global().Configure(options_.fault_plan);
    if (!configured.ok()) {
      SPECQP_LOG(Warning) << "ignoring malformed fault plan: "
                          << configured.ToString();
    }
  }
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
  // The fault plan must be live before the store opens so that open-path
  // probes ("store.open", "shard.open") participate in the schedule; the
  // Engine constructor re-applies it harmlessly.
  if (!options.fault_plan.empty()) {
    const Status configured =
        FaultInjector::Global().Configure(options.fault_plan);
    if (!configured.ok()) {
      SPECQP_LOG(Warning) << "ignoring malformed fault plan: "
                          << configured.ToString();
    }
  }
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
    AdmissionController::Options options;
    options.max_batch_size = std::max<size_t>(1, options_.admission_max_batch);
    options.max_delay = std::chrono::microseconds(static_cast<int64_t>(
        std::max(0.0, options_.admission_max_delay_ms) * 1000.0));
    options.max_queue_depth = options_.admission_max_queue;
    options.deadline_aware_shed = options_.admission_deadline_shed;
    options.retry_after_hint = std::chrono::microseconds(static_cast<int64_t>(
        std::max(0.0, options_.admission_retry_after_ms) * 1000.0));
    admission_ = std::make_unique<AdmissionController>(this, options);
  });
  return *admission_;
}

std::future<QueryResponse> Engine::Submit(QueryRequest request) {
  if (request.admission == QueryRequest::Admission::kImmediate) {
    std::promise<QueryResponse> promise;
    promise.set_value(ExecuteRequest(std::move(request)));
    return promise.get_future();
  }
  return admission().Submit(std::move(request));
}

QueryResponse Engine::Explain(const QueryRequest& request) {
  QueryResponse response;
  response.tag = request.tag;
  response.strategy = request.strategy;
  response.k = request.k;
  if (request.k < 1) {
    response.status = Status::InvalidArgument("k must be >= 1");
    return response;
  }

  // Resolve without mutating the caller's request.
  Query parsed;
  const Query* query = nullptr;
  if (request.query.has_value()) {
    query = &*request.query;
  } else {
    auto result = ParseQuery(request.text, store_->dict());
    if (!result.ok()) {
      response.status = result.status();
      return response;
    }
    parsed = std::move(result).value();
    query = &parsed;
  }

  WallTimer plan_timer;
  switch (request.strategy) {
    case Strategy::kSpecQp:
      response.plan = planner_.Plan(*query, request.k, &response.diagnostics);
      break;
    case Strategy::kTrinit:
      response.plan = QueryPlan::TrinitPlan(query->num_patterns());
      break;
    case Strategy::kNoRelax:
      response.plan = QueryPlan::NoRelaxationsPlan(query->num_patterns());
      break;
  }
  response.stats.plan_ms = plan_timer.ElapsedMillis();
  return response;
}

QueryResponse Engine::ExecuteRequest(QueryRequest request) {
  QueryResponse response;
  response.tag = request.tag;
  response.strategy = request.strategy;
  response.k = request.k;

  if (request.k < 1) {
    response.status = Status::InvalidArgument("k must be >= 1");
    return response;
  }
  if (!request.query.has_value()) {
    auto parsed = ParseQuery(request.text, store_->dict());
    if (!parsed.ok()) {
      response.status = parsed.status();
      return response;
    }
    request.query = std::move(parsed).value();
  }

  ExecInterrupt interrupt;
  bool interruptible = false;
  if (request.cancel.valid()) {
    interrupt.LinkCancelFlag(request.cancel.flag());
    interruptible = true;
  }
  if (request.deadline.has_value()) {
    interrupt.SetDeadline(*request.deadline);
    interruptible = true;
  }
  if (interruptible && (interrupt.Stopped() || interrupt.CheckDeadline())) {
    // Terminated before any work: already-cancelled token or expired
    // deadline at submit time.
    response.status = interrupt.cause() == StopCause::kCancelled
                          ? Status::Cancelled("cancelled before execution")
                          : Status::DeadlineExceeded(
                                "deadline expired before execution");
    return response;
  }

  // Serving preflight: fault sweep + strict/degraded decision. A store
  // with quarantined shards either refuses now (strict) or marks the
  // response partial (degraded_reads).
  uint64_t fault_epoch = 0;
  response.status = PreflightServing(&response, &fault_epoch);
  if (!response.status.ok()) return response;

  RunQuery(*request.query, request, interruptible ? &interrupt : nullptr,
           &response);

  if (response.status.ok()) {
    const Status post = PostflightServing(fault_epoch, &response);
    if (!post.ok()) {
      response.rows.clear();
      response.partial = false;
      response.status = post;
    }
  }
  return response;
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
  // Posting lists and statistics built against a retired shard set
  // describe answers the store can no longer produce; drop them exactly
  // once per epoch advance (CAS-guarded — concurrent preflights race to
  // reconcile, only the winner clears).
  uint64_t seen = seen_fault_epoch_.load(std::memory_order_acquire);
  while (seen < epoch) {
    if (seen_fault_epoch_.compare_exchange_weak(seen, epoch,
                                                std::memory_order_acq_rel)) {
      postings_.Clear();
      catalog_.Clear();
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

Status Engine::PostflightServing(uint64_t epoch_before,
                                 QueryResponse* response) {
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
    return Status::IoError(
        "backing store faulted during execution; the answer may mix pre- "
        "and post-fault data — retry to answer from the surviving state");
  }
  return Status::Ok();
}

void Engine::RunQuery(const Query& query, const QueryRequest& request,
                      const ExecInterrupt* interrupt,
                      QueryResponse* response) {
  // Store internals poll this thread-local probe between shards and every
  // few thousand merge steps, so cancellation aborts promptly even while
  // execution is deep inside a scatter-gather or posting build. Null
  // interrupt installs a null probe (StopRequested stays false).
  ScopedStopProbe stop_probe(
      interrupt != nullptr ? &InterruptStopProbe : nullptr, interrupt);

  WallTimer plan_timer;
  switch (request.strategy) {
    case Strategy::kSpecQp:
      response->plan =
          planner_.Plan(query, request.k, &response->diagnostics);
      break;
    case Strategy::kTrinit:
      response->plan = QueryPlan::TrinitPlan(query.num_patterns());
      break;
    case Strategy::kNoRelax:
      response->plan = QueryPlan::NoRelaxationsPlan(query.num_patterns());
      break;
  }
  response->stats.plan_ms = plan_timer.ElapsedMillis();

  WallTimer exec_timer;
  ThreadPool* pool =
      request.serial.value_or(false) ? nullptr : pool_.get();
  const AdaptivePolicy adaptive{options_.replan_divergence_factor,
                                options_.replan_check_rows};
  RaceReport race;
  QueryPlan executed_plan = response->plan;

  // Plan racing: only the Spec-QP strategy produces a runner-up (the
  // primary with its least-confident PLANGEN decision flipped), and a race
  // needs the pool to time-share.
  const PlanDiagnostics& diag = response->diagnostics;
  const bool race_now = pool != nullptr &&
                        request.strategy == Strategy::kSpecQp &&
                        options_.speculate_threshold > 0.0 &&
                        diag.has_runner_up && diag.least_confident_pattern >= 0 &&
                        diag.plan_confidence < options_.speculate_threshold;
  if (race_now) {
    const double bound = speculative_.CertificateBound(
        query, static_cast<size_t>(diag.least_confident_pattern));
    response->rows = speculative_.Race(query, request, response->plan,
                                       diag.runner_up, bound, adaptive, pool,
                                       &response->stats, &race, &executed_plan);
  } else {
    ExecContext ctx(&response->stats, pool, /*shared_scans=*/nullptr,
                    interrupt);
    if (request.parallel_min_rows.has_value()) {
      ctx.set_parallel_min_rows_override(*request.parallel_min_rows);
    }
    if (adaptive.enabled()) {
      response->rows = speculative_.RunAdaptive(
          query, response->plan, request.k, adaptive, &ctx, &executed_plan);
    } else {
      auto root = executor_.Build(query, response->plan, &ctx);
      response->rows = PullTopK(root.get(), request.k, &response->stats);
      root.reset();  // partition trees die before their contexts merge
    }
    ctx.MergePartitionStats();
  }
  response->stats.exec_ms = exec_timer.ElapsedMillis();

  if (interrupt != nullptr &&
      (interrupt->Stopped() || interrupt->CheckDeadline())) {
    // Aborted (or terminally late): no partial results are returned.
    response->rows.clear();
    switch (interrupt->cause()) {
      case StopCause::kCancelled:
        response->status = Status::Cancelled("query cancelled");
        break;
      case StopCause::kStoreFault:
        response->status =
            Status::IoError("backing store faulted during execution");
        break;
      default:
        response->status =
            Status::DeadlineExceeded("query deadline exceeded");
        break;
    }
    return;
  }

  // Chain relaxations execute with trailing scratch slots for their fresh
  // variables (always kInvalidTermId at the root); trim rows back to the
  // query's own variables.
  for (ScoredRow& row : response->rows) {
    if (row.bindings.size() > query.num_vars()) {
      row.bindings.resize(query.num_vars());
    }
  }

  // Calibration loop: record what the planner believed against what the
  // posting lists actually held (only for completed executions — an
  // aborted run's observations are censored). The pattern records feed
  // scripts/fit_estimator_correction.py; estimated_m is post-correction,
  // so a fitted table converging to 1.0 multipliers means the loop closed.
  for (const TriplePattern& q : query.patterns()) {
    const PatternKey key = q.Key();
    CalibrationPatternRecord record;
    record.signature = PatternSignature(*store_, key);
    record.estimated_m = estimator_.PatternCardinality(key);
    record.actual_m =
        static_cast<double>(postings_.GetUncounted(key)->size());
    calibration_log_.RecordPattern(std::move(record));
  }
  CalibrationQueryRecord summary;
  summary.estimated_cardinality = response->diagnostics.cardinality_estimate;
  summary.observed_join_results = response->rows.size();
  summary.plan = executed_plan.ToString();
  summary.raced = race.raced;
  summary.runner_up_won = race.runner_up_won;
  calibration_log_.RecordQuery(std::move(summary));
}

QueryPlan Engine::PlanOnly(const Query& query, size_t k,
                           PlanDiagnostics* diagnostics) {
  // Same planner call Explain makes, without the request/response envelope
  // (this sits in planning-throughput measurement loops).
  return planner_.Plan(query, k, diagnostics);
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
