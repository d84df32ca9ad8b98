#include "core/batch_executor.h"

#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "rdf/shared_scan_cache.h"
#include "relax/expansion.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace specqp {

namespace {

// Structural identity of a query: patterns (variables by id, constants by
// term), variable count, and projection. Variable *names* are irrelevant —
// results are VarId-indexed binding vectors — so two queries differing
// only in names collapse onto one execution.
std::string EncodeQuery(const Query& query) {
  std::string out = std::to_string(query.num_vars());
  out += ':';
  for (const TriplePattern& pattern : query.patterns()) {
    for (const PatternTerm& term : {pattern.s, pattern.p, pattern.o}) {
      if (term.is_variable()) {
        out += 'v';
        out += std::to_string(term.var());
      } else {
        out += 'c';
        out += std::to_string(term.term());
      }
    }
    out += '.';
  }
  out += '|';
  for (VarId v : query.projection()) {
    out += std::to_string(v);
    out += ',';
  }
  return out;
}

}  // namespace

BatchExecutor::BatchExecutor(Engine* engine) : engine_(engine) {
  SPECQP_CHECK(engine_ != nullptr);
}

std::vector<QueryResponse> BatchExecutor::Execute(
    std::span<const Query> queries, size_t k, Strategy strategy,
    BatchStats* batch_stats, std::span<const ExecInterrupt* const> interrupts) {
  SPECQP_CHECK(k >= 1);
  SPECQP_CHECK(interrupts.empty() || interrupts.size() == queries.size());
  BatchStats local_stats;
  BatchStats& bs = batch_stats != nullptr ? *batch_stats : local_stats;
  bs = BatchStats();
  bs.batch_size = queries.size();

  std::vector<QueryResponse> responses(queries.size());
  executed_plans_.assign(queries.size(), QueryPlan());
  if (queries.empty()) return responses;

  // --- phase 1: collapse structurally identical queries -------------------
  std::unordered_map<std::string, size_t> canon;  // encoding -> distinct id
  std::vector<size_t> rep_slot;          // distinct id -> representative slot
  std::vector<size_t> distinct_of(queries.size());  // slot -> distinct id
  canon.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const auto [it, inserted] =
        canon.emplace(EncodeQuery(queries[i]), rep_slot.size());
    if (inserted) rep_slot.push_back(i);
    distinct_of[i] = it->second;
  }
  bs.distinct_queries = rep_slot.size();

  // A shared execution polls an interrupt only when every rider of its
  // duplicate group handed in that same signal (all-null groups and legacy
  // batches run uninterruptible, as before). Prepare and Plan serve every
  // slot, so they poll one only when all slots share it (a window of one,
  // say); tasks install their own.
  std::vector<const ExecInterrupt*> group_interrupt(rep_slot.size(), nullptr);
  const ExecInterrupt* batch_interrupt =
      interrupts.empty() ? nullptr : interrupts[0];
  if (!interrupts.empty()) {
    std::vector<bool> group_seen(rep_slot.size(), false);
    for (size_t i = 0; i < queries.size(); ++i) {
      const size_t g = distinct_of[i];
      if (interrupts[i] != batch_interrupt) batch_interrupt = nullptr;
      if (!group_seen[g]) {
        group_seen[g] = true;
        group_interrupt[g] = interrupts[i];
      } else if (group_interrupt[g] != interrupts[i]) {
        group_interrupt[g] = nullptr;  // mixed riders: run to completion
      }
    }
  }
  ScopedStopProbe stop_probe = InstallStopProbe(batch_interrupt);

  // --- phase 2: mine expansions + shared-scan plan + stats snapshot -------
  WallTimer prepare_timer;
  RelaxationExpansionCache expansions(&engine_->rules());
  // A lone query builds its lists as a stand-alone execution does (no
  // shared base-list pass), so its block counters match one's.
  SharedScanCache shared(&engine_->postings(), rep_slot.size() > 1);

  // The planning wave: every original pattern key, plus — per strategy —
  // the relaxation keys planning or execution is guaranteed to read.
  // kSpecQp planning compares against the *top-weighted* rule only, so the
  // other relaxations wait for the plan (phase 4); kTrinit executes every
  // relaxation of every pattern; kNoRelax reads originals only.
  std::vector<PatternKey> wave;
  std::unordered_set<PatternKey, PatternKeyHash> wave_seen;
  const auto add_key = [&](const PatternKey& key) {
    if (wave_seen.insert(key).second) wave.push_back(key);
  };
  std::unordered_set<PatternKey, PatternKeyHash> original_keys;
  for (const size_t slot : rep_slot) {
    for (const TriplePattern& pattern : queries[slot].patterns()) {
      const PatternKey key = pattern.Key();
      original_keys.insert(key);
      add_key(key);
      if (strategy == Strategy::kNoRelax) continue;
      const PatternExpansion& expansion = expansions.For(key);
      if (strategy == Strategy::kTrinit) {
        for (const PatternKey& relaxed : expansion.relaxed) add_key(relaxed);
        for (const PatternKey& hop : expansion.chain_hops) add_key(hop);
      } else if (!expansion.relaxed.empty()) {
        add_key(expansion.relaxed.front());  // top rule, for E_Q'(1)
      }
    }
  }
  bs.distinct_patterns = original_keys.size();
  shared.Prepare(wave);

  if (strategy == Strategy::kSpecQp) {
    // One statistics snapshot per batch: every pattern the planner will
    // consult is computed exactly once, against the lists the shared-scan
    // plan just resolved (Prepare inserted derived lists into the engine
    // cache, so GetStats never rebuilds them).
    for (const PatternKey& key : wave) {
      engine_->catalog().GetStats(key);
    }
    bs.stats_snapshot_patterns = wave.size();
  }
  bs.prepare_ms = prepare_timer.ElapsedMillis();

  // --- phase 3: plan every distinct query (serial; memos are warm) --------
  WallTimer plan_phase_timer;
  for (const size_t slot : rep_slot) {
    responses[slot].strategy = strategy;
    responses[slot].k = k;
    engine_->Plan(queries[slot], &responses[slot]);
  }
  bs.plan_ms = plan_phase_timer.ElapsedMillis();

  // --- phase 4: resolve the execution wave the plans actually need --------
  if (strategy == Strategy::kSpecQp) {
    WallTimer wave2_timer;
    std::vector<PatternKey> exec_wave;
    for (const size_t slot : rep_slot) {
      for (const size_t i : responses[slot].plan.singletons) {
        const PatternKey key = queries[slot].pattern(i).Key();
        const PatternExpansion& expansion = expansions.For(key);
        for (const PatternKey& relaxed : expansion.relaxed) {
          if (wave_seen.insert(relaxed).second) exec_wave.push_back(relaxed);
        }
        for (const PatternKey& hop : expansion.chain_hops) {
          if (wave_seen.insert(hop).second) exec_wave.push_back(hop);
        }
      }
    }
    shared.Prepare(exec_wave);
    bs.prepare_ms += wave2_timer.ElapsedMillis();
  }
  bs.patterns_expanded = expansions.size();

  // --- phase 5: execute distinct queries ----------------------------------
  // One distinct query runs alone on the calling thread with the pool (a
  // partitioned tree or a race); several run concurrently as pool tasks,
  // each a serial tree (serial trees equal partitioned trees row-for-row).
  ThreadPool* pool = engine_->pool();
  ThreadPool* task_pool = rep_slot.size() == 1 ? pool : nullptr;
  WallTimer exec_phase_timer;
  std::vector<std::function<void()>> tasks;
  tasks.reserve(rep_slot.size());
  for (size_t g = 0; g < rep_slot.size(); ++g) {
    const size_t slot = rep_slot[g];
    const ExecInterrupt* interrupt = group_interrupt[g];
    tasks.push_back([this, &queries, &responses, &shared, slot, interrupt,
                     task_pool] {
      if (Expired(interrupt)) {
        return;  // stopped before execution started; owner sets the status
      }
      ScopedStopProbe task_probe = InstallStopProbe(interrupt);
      QueryResponse& response = responses[slot];
      ExecContext ctx(&response.stats, task_pool, &shared, interrupt);
      engine_->Run(queries[slot], &ctx, &response, &executed_plans_[slot]);
    });
  }
  if (pool != nullptr && tasks.size() > 1) {
    pool->RunAndWait(&tasks);
  } else {
    for (auto& task : tasks) task();
  }
  bs.exec_ms = exec_phase_timer.ElapsedMillis();

  // --- phase 6: fan duplicate slots out from their representative ---------
  // Duplicates carry a full copy of the shared execution's result,
  // including its ExecStats: the work those counters describe happened
  // once for the whole duplicate group (BatchStats::distinct_queries says
  // how many executions actually ran).
  for (size_t i = 0; i < queries.size(); ++i) {
    const size_t rep = rep_slot[distinct_of[i]];
    if (rep != i) {
      responses[i] = responses[rep];
      executed_plans_[i] = executed_plans_[rep];
    }
  }

  const SharedScanCache::Counters counters = shared.counters();
  bs.shared_scan_hits = counters.hits;
  bs.shared_scan_misses = counters.misses;
  bs.lists_resolved = counters.resolved_lists;
  bs.lists_derived = counters.derived_lists;
  bs.base_scans = counters.base_scans;
  return responses;
}

}  // namespace specqp
