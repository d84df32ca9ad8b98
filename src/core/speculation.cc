#include "core/speculation.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <utility>

#include "topk/top_k.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace specqp {

namespace {

// Strict-comparison slack, matching the rank join's emission epsilon: a
// certificate only holds when the k-th score clears the bound by more than
// floating-point noise.
constexpr double kEps = 1e-9;

double MillisBetween(std::chrono::steady_clock::time_point from,
                     std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

}  // namespace

SpeculativeExecutor::SpeculativeExecutor(PlanExecutor* executor,
                                         const TripleStore* store,
                                         const RelaxationIndex* rules,
                                         ExpectedScoreEstimator* estimator)
    : executor_(executor),
      store_(store),
      rules_(rules),
      estimator_(estimator) {
  SPECQP_CHECK(executor_ != nullptr && store_ != nullptr &&
               rules_ != nullptr && estimator_ != nullptr);
}

double SpeculativeExecutor::CertificateBound(const Query& query,
                                             size_t pattern_index) const {
  SPECQP_CHECK(pattern_index < query.num_patterns());
  const PatternKey key = query.pattern(pattern_index).Key();
  // The largest score a match of any *live* relaxation of this pattern can
  // contribute. Empty relaxed lists cannot produce rows, so they cannot
  // cap anything.
  double cap = 0.0;
  for (const RelaxationRule& rule : rules_->RulesFor(key)) {
    if (store_->CountMatches(rule.to) > 0) {
      cap = std::max(cap, rule.weight);
    }
  }
  for (const ChainRelaxationRule& rule : rules_->ChainRulesFor(key)) {
    const PatternKey hop1{kInvalidTermId, rule.hop1_predicate, kInvalidTermId};
    const PatternKey hop2{kInvalidTermId, rule.hop2_predicate,
                          rule.hop2_object};
    if (store_->CountMatches(hop1) > 0 && store_->CountMatches(hop2) > 0) {
      cap = std::max(cap, rule.weight);
    }
  }
  if (cap <= 0.0) return -1.0;
  // Normalised scores top out at 1.0 per pattern; an answer touching a
  // relaxation of this pattern scores at most (n - 1) from the other
  // patterns plus the relaxation's weight.
  return static_cast<double>(query.num_patterns() - 1) + cap;
}

QueryPlan SpeculativeExecutor::ReorderByActualSize(
    const Query& query, const QueryPlan& plan) const {
  const auto size_of = [&](size_t i) {
    return store_->CountMatches(query.pattern(i).Key());
  };
  QueryPlan out = plan;
  const auto by_size = [&](size_t a, size_t b) {
    return size_of(a) < size_of(b);
  };
  std::stable_sort(out.join_group.begin(), out.join_group.end(), by_size);
  std::stable_sort(out.singletons.begin(), out.singletons.end(), by_size);
  return out;
}

double SpeculativeExecutor::LeafEstimate(
    const Query& query, const PlanExecutor::LeafHandle& leaf) const {
  const PatternKey key = query.pattern(leaf.pattern_index).Key();
  double estimate = estimator_->PatternCardinality(key);
  if (!leaf.singleton) return estimate;
  for (const RelaxationRule& rule : rules_->RulesFor(key)) {
    estimate += estimator_->PatternCardinality(rule.to);
  }
  for (const ChainRelaxationRule& rule : rules_->ChainRulesFor(key)) {
    const PatternKey hop1{kInvalidTermId, rule.hop1_predicate, kInvalidTermId};
    const PatternKey hop2{kInvalidTermId, rule.hop2_predicate,
                          rule.hop2_object};
    // The chain emits at most one row per pair joined through the fresh
    // variable; the smaller hop bounds that.
    estimate += std::min(estimator_->PatternCardinality(hop1),
                         estimator_->PatternCardinality(hop2));
  }
  return estimate;
}

std::vector<ScoredRow> SpeculativeExecutor::RunAdaptive(
    const Query& query, const QueryPlan& plan, size_t k,
    const AdaptivePolicy& policy, ExecContext* ctx, QueryPlan* executed_plan,
    const std::function<void()>& on_replan) {
  if (executed_plan != nullptr) *executed_plan = plan;
  std::vector<PlanExecutor::LeafHandle> leaves;
  auto root =
      executor_->Build(query, plan, ctx, policy.enabled() ? &leaves : nullptr);
  if (!policy.enabled() || leaves.empty()) {
    auto rows = PullTopK(root.get(), k, ctx->stats());
    root.reset();
    return rows;
  }

  // Divergence milestones: estimates are floored at one row so a pattern
  // estimated empty does not trip the checkpoint on its first match.
  std::vector<double> limits(leaves.size(), 0.0);
  for (size_t i = 0; i < leaves.size(); ++i) {
    limits[i] =
        std::max(1.0, LeafEstimate(query, leaves[i])) * policy.divergence_factor;
  }
  ctx->SetCheckpoint(
      [&leaves, &limits] {
        for (size_t i = 0; i < leaves.size(); ++i) {
          if (static_cast<double>(leaves[i].op->RowsEmitted()) > limits[i]) {
            return true;
          }
        }
        return false;
      },
      static_cast<uint32_t>(std::min<uint64_t>(
          policy.check_rows == 0 ? 1 : policy.check_rows, 1u << 20)));

  auto rows = PullTopK(root.get(), k, ctx->stats());
  const bool diverged = ctx->checkpoint_fired();
  ctx->ClearCheckpoint();
  root.reset();

  const bool aborted =
      ctx->interrupt() != nullptr && ctx->interrupt()->Stopped();
  // A full top-k survives a checkpoint stop intact: PullTopK only ever
  // truncates *after* the k-th row, and rows before the stop are the true
  // prefix. Only a short result from a divergence stop needs the restart.
  if (!diverged || aborted || rows.size() >= k) return rows;

  ++ctx->stats()->replans_triggered;
  if (on_replan) on_replan();
  const QueryPlan replanned = ReorderByActualSize(query, plan);
  if (executed_plan != nullptr) *executed_plan = replanned;
  // Restart on warm memos: the posting cache already holds every list the
  // first attempt touched, so the rebuild is pointer-chasing, not I/O.
  auto root2 = executor_->Build(query, replanned, ctx, nullptr);
  rows = PullTopK(root2.get(), k, ctx->stats());
  root2.reset();
  return rows;
}

std::vector<ScoredRow> SpeculativeExecutor::Race(
    const Query& query, const QueryPlan& primary, const QueryPlan& runner_up,
    double certificate_bound, size_t k, const AdaptivePolicy& policy,
    ExecContext* ctx, QueryPlan* executed_plan) {
  SPECQP_CHECK(ctx->pool() != nullptr);

  struct RacerSlot {
    const QueryPlan* plan = nullptr;
    QueryPlan executed;
    ExecInterrupt interrupt;
    ExecStats stats;
    std::vector<ScoredRow> rows;
    std::chrono::steady_clock::time_point win_time{};
    std::chrono::steady_clock::time_point end_time{};
    bool won = false;
  };
  RacerSlot racers[2];
  racers[0].plan = &primary;
  racers[1].plan = &runner_up;
  for (RacerSlot& slot : racers) slot.interrupt.Inherit(ctx->interrupt());

  std::atomic<int> winner{-1};
  const auto claim = [&racers, &winner](int index) {
    int expected = -1;
    if (!winner.compare_exchange_strong(expected, index,
                                        std::memory_order_acq_rel)) {
      return;
    }
    racers[index].won = true;
    racers[index].win_time = std::chrono::steady_clock::now();
    // <50 ms wind-down: the loser observes the latch at its next per-row
    // interrupt poll and its operators drain out false.
    racers[1 - index].interrupt.RequestStop(StopCause::kRaceLost);
  };

  const auto run_racer = [&](int index) {
    RacerSlot& slot = racers[index];
    // Racers build strictly serial trees (no pool in the context): the two
    // plans time-share the pool's slots instead of nesting partitioned
    // parallelism inside a race.
    ExecContext racer_ctx(&slot.stats, /*pool=*/nullptr, ctx->shared_scans(),
                          &slot.interrupt);
    if (index == 0 && policy.enabled()) {
      // The primary racer keeps its adaptive checkpoints; committing to a
      // re-plan claims the race first, so a re-plan win disables the live
      // race rather than racing a stale rival.
      slot.rows = RunAdaptive(query, *slot.plan, k, policy, &racer_ctx,
                              &slot.executed, [&claim, index] { claim(index); });
    } else {
      slot.executed = *slot.plan;
      auto root = executor_->Build(query, *slot.plan, &racer_ctx);
      slot.rows = PullTopK(root.get(), k, &slot.stats);
      root.reset();
    }
    racer_ctx.MergePartitionStats();

    if (slot.interrupt.cause() != StopCause::kRaceLost) {
      // Usable? The primary always is (it is exactly what speculation-off
      // would have run). The runner-up only via the certificate: k rows
      // whose k-th score provably rules out the flipped pattern's
      // relaxations — or an unconditional bound (< 0), where both plans
      // read identical inputs.
      const bool usable =
          index == 0 || certificate_bound < 0.0 ||
          (slot.rows.size() >= k &&
           slot.rows.back().score > certificate_bound + kEps);
      if (usable) claim(index);
    }
    slot.end_time = std::chrono::steady_clock::now();
  };

  std::vector<std::function<void()>> tasks;
  tasks.emplace_back([&run_racer] { run_racer(0); });
  tasks.emplace_back([&run_racer] { run_racer(1); });
  ctx->pool()->RunAndWait(&tasks);

  // Both racers have joined; no claim at all means both were stopped
  // externally (cancel/deadline) or the runner-up failed its certificate
  // while the primary lost nothing — fall back to the primary, which is
  // always a correct (possibly aborted-partial) result.
  int win_index = winner.load(std::memory_order_acquire);
  if (win_index < 0) win_index = 0;
  RacerSlot& win = racers[win_index];
  RacerSlot& lose = racers[1 - win_index];

  ExecStats* stats = ctx->stats();
  *stats += win.stats;  // winner-only: no double-counted operator work
  stats->plans_raced += 2;
  if (win_index == 1) ++stats->race_wins_by_runnerup;
  stats->speculative_work_wasted_rows += lose.stats.answer_objects;
  if (win.won && lose.end_time > win.win_time) {
    stats->race_loser_abort_ms += MillisBetween(win.win_time, lose.end_time);
  }

  if (executed_plan != nullptr) *executed_plan = win.executed;
  return std::move(win.rows);
}

}  // namespace specqp
