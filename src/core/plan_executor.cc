#include "core/plan_executor.h"

#include <algorithm>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "rdf/shared_scan_cache.h"
#include "topk/incremental_merge.h"
#include "topk/parallel_rank_join.h"
#include "topk/pattern_scan.h"
#include "topk/project.h"
#include "topk/rank_join.h"
#include "util/logging.h"

namespace specqp {

namespace {

// A built sub-plan plus the set of variables it binds.
struct Unit {
  std::unique_ptr<ScoredRowIterator> op;
  std::vector<bool> bound;  // per VarId
};

std::vector<bool> PatternBound(const TriplePattern& q, size_t width) {
  std::vector<bool> bound(width, false);
  VarId vars[3];
  const int n = q.Variables(vars);
  for (int i = 0; i < n; ++i) bound[vars[i]] = true;
  return bound;
}

std::vector<VarId> SharedBound(const std::vector<bool>& a,
                               const std::vector<bool>& b) {
  std::vector<VarId> shared;
  for (size_t v = 0; v < a.size(); ++v) {
    if (a[v] && b[v]) shared.push_back(static_cast<VarId>(v));
  }
  return shared;
}

// Joins `units` left-deep into `acc` (greedy: prefer the earliest unit
// sharing a variable with the accumulated bound set).
void FoldInto(Unit* acc, std::vector<Unit>* units, ExecContext* ctx) {
  while (!units->empty()) {
    size_t pick = 0;
    bool connected = false;
    for (size_t i = 0; i < units->size(); ++i) {
      if (!SharedBound(acc->bound, (*units)[i].bound).empty()) {
        pick = i;
        connected = true;
        break;
      }
    }
    (void)connected;  // cross product when nothing connects
    Unit next = std::move((*units)[pick]);
    units->erase(units->begin() + static_cast<ptrdiff_t>(pick));

    std::vector<VarId> join_vars = SharedBound(acc->bound, next.bound);
    acc->op = std::make_unique<RankJoin>(std::move(acc->op),
                                         std::move(next.op),
                                         std::move(join_vars), ctx);
    for (size_t v = 0; v < acc->bound.size(); ++v) {
      if (next.bound[v]) acc->bound[v] = true;
    }
  }
}

}  // namespace

// One hash partition's view of the posting lists: patterns binding `var`
// scan only their bucket `index` of `count`; other patterns scan the full
// list (replicated across trees — correct because any join against them
// keeps the v-binding of the partitioned side). Piece sets are memoised in
// the PostingListCache, so repeated executions of a query re-use them; the
// per-Build `memo` (shared across this Build's partition trees) keeps the
// cache's lock out of the hot per-partition loop.
struct PlanExecutor::PartitionView {
  using PieceMemo =
      std::map<std::tuple<TermId, TermId, TermId, int>,
               std::vector<std::shared_ptr<const PostingList>>>;

  VarId var = kInvalidVarId;
  uint32_t index = 0;
  uint32_t count = 1;
  PostingListCache* postings = nullptr;
  PieceMemo* memo = nullptr;

  std::shared_ptr<const PostingList> PieceFor(const PatternKey& key,
                                              int slot) const {
    const auto memo_key = std::make_tuple(key.s, key.p, key.o, slot);
    auto it = memo->find(memo_key);
    if (it == memo->end()) {
      it = memo->emplace(memo_key, postings->GetPartitions(key, slot, count))
               .first;
    }
    return it->second[index];
  }
};

PlanExecutor::PlanExecutor(const TripleStore* store,
                           PostingListCache* postings,
                           const RelaxationIndex* rules)
    : PlanExecutor(store, postings, rules, Options()) {}

PlanExecutor::PlanExecutor(const TripleStore* store,
                           PostingListCache* postings,
                           const RelaxationIndex* rules,
                           const Options& options)
    : store_(store), postings_(postings), rules_(rules), options_(options) {
  SPECQP_CHECK(store_ != nullptr && postings_ != nullptr && rules_ != nullptr);
}

VarId PlanExecutor::CommonJoinVariable(const Query& query) {
  if (query.num_patterns() == 0) return kInvalidVarId;
  for (size_t v = 0; v < query.num_vars(); ++v) {
    bool in_all = true;
    for (const TriplePattern& q : query.patterns()) {
      if (!q.UsesVariable(static_cast<VarId>(v))) {
        in_all = false;
        break;
      }
    }
    if (in_all) return static_cast<VarId>(v);
  }
  return kInvalidVarId;
}

std::unique_ptr<ScoredRowIterator> PlanExecutor::Build(const Query& query,
                                                       const QueryPlan& plan,
                                                       ExecContext* ctx) {
  return Build(query, plan, ctx, nullptr);
}

std::unique_ptr<ScoredRowIterator> PlanExecutor::Build(
    const Query& query, const QueryPlan& plan, ExecContext* ctx,
    std::vector<LeafHandle>* leaves) {
  SPECQP_CHECK(ctx != nullptr);
  if (leaves != nullptr) leaves->clear();
  SPECQP_CHECK(plan.join_group.size() + plan.singletons.size() ==
               query.num_patterns())
      << "plan does not cover the query";

  // Parallel tree? Needs a pool, a join to split (>= 2 patterns), a
  // variable shared by every pattern to partition on, and enough entries
  // in the lists the tree scans to be worth it. Single-pattern queries
  // stay serial so the root keeps the posting lists' triple-index tie
  // order.
  uint32_t num_partitions = 0;
  VarId partition_var = kInvalidVarId;
  if (ctx->parallel() && query.num_patterns() >= 2) {
    partition_var = CommonJoinVariable(query);
    if (partition_var != kInvalidVarId &&
        ScansAtLeast(query, plan, options_.parallel_min_rows)) {
      num_partitions = static_cast<uint32_t>(ctx->num_threads());
    }
  }
  if (num_partitions < 2) return BuildTree(query, plan, ctx, nullptr, leaves);

  PartitionView::PieceMemo memo;
  std::vector<std::unique_ptr<ScoredRowIterator>> roots;
  roots.reserve(num_partitions);
  for (uint32_t i = 0; i < num_partitions; ++i) {
    PartitionView view;
    view.var = partition_var;
    view.index = i;
    view.count = num_partitions;
    view.postings = postings_;
    view.memo = &memo;
    roots.push_back(
        BuildTree(query, plan, ctx->ForPartition(), &view, nullptr));
  }
  ctx->stats()->parallel_partitions += num_partitions;
  return std::make_unique<ParallelRankJoin>(std::move(roots), ctx);
}

bool PlanExecutor::ScansAtLeast(const Query& query, const QueryPlan& plan,
                                size_t min_rows) const {
  if (min_rows == 0) return true;
  // A resident list is sized as it is; a list is built from its key's
  // matches exactly, so the store's index sizes one that is not resident.
  size_t rows = 0;
  const auto reached = [&](const PatternKey& key) {
    const auto list = postings_->Peek(key);
    rows += list != nullptr ? list->size() : store_->CountMatches(key);
    return rows >= min_rows;
  };
  for (size_t i : plan.join_group) {
    if (reached(query.pattern(i).Key())) return true;
  }
  for (size_t i : plan.singletons) {
    const PatternKey key = query.pattern(i).Key();
    if (reached(key)) return true;
    for (const RelaxationRule& rule : rules_->RulesFor(key)) {
      if (reached(rule.to)) return true;
    }
    for (const ChainRelaxationRule& rule : rules_->ChainRulesFor(key)) {
      if (reached({kInvalidTermId, rule.hop1_predicate, kInvalidTermId}) ||
          reached({kInvalidTermId, rule.hop2_predicate, rule.hop2_object})) {
        return true;
      }
    }
  }
  return false;
}

std::unique_ptr<ScoredRowIterator> PlanExecutor::BuildTree(
    const Query& query, const QueryPlan& plan, ExecContext* ctx,
    const PartitionView* view, std::vector<LeafHandle>* leaves) {
  // Chain relaxations bind a fresh intermediate variable each; those get
  // trailing binding slots beyond the query's own variables (cleared again
  // by a projection before the chain's rows reach the merge, so the extra
  // slots are kInvalidTermId everywhere above the chain joins).
  size_t num_chain_slots = 0;
  for (size_t i : plan.singletons) {
    num_chain_slots += rules_->ChainRulesFor(query.pattern(i).Key()).size();
  }
  const size_t width = query.num_vars() + num_chain_slots;
  VarId next_chain_slot = static_cast<VarId>(query.num_vars());

  auto make_scan = [&](const TriplePattern& pattern, double weight) {
    const int slot =
        view == nullptr ? -1 : SlotOfVar(pattern, view->var);
    // Batch executions resolve full lists through the batch's shared-scan
    // cache (identical patterns across the batch's queries are resolved
    // once and pinned); stand-alone executions go to the engine cache.
    std::shared_ptr<const PostingList> list;
    if (slot >= 0) {
      list = view->PieceFor(pattern.Key(), slot);
    } else if (ctx->shared_scans() != nullptr) {
      list = ctx->shared_scans()->Get(pattern.Key());
    } else {
      list = postings_->Get(pattern.Key());
    }
    return std::make_unique<PatternScan>(store_, std::move(list), pattern,
                                         width, weight, ctx);
  };

  // Join-group units: bare scans.
  std::vector<Unit> group_units;
  for (size_t i : plan.join_group) {
    const TriplePattern& q = query.pattern(i);
    auto scan = make_scan(q, 1.0);
    if (leaves != nullptr) {
      leaves->push_back(LeafHandle{i, /*singleton=*/false, scan.get()});
    }
    group_units.push_back(Unit{std::move(scan), PatternBound(q, width)});
  }

  // Singleton units: incremental merges over pattern + relaxations.
  std::vector<Unit> singleton_units;
  for (size_t i : plan.singletons) {
    const TriplePattern& q = query.pattern(i);
    std::vector<std::unique_ptr<ScoredRowIterator>> inputs;
    inputs.push_back(make_scan(q, 1.0));
    for (const RelaxationRule& rule : rules_->RulesFor(q.Key())) {
      auto relaxed = ApplyRule(q, rule);
      SPECQP_CHECK(relaxed.ok()) << relaxed.status().ToString();
      inputs.push_back(make_scan(relaxed.value(), rule.weight));
    }
    // Chain relaxations: rank-join the two hops on the fresh variable
    // (each hop discounted by w/2, so the chain tops out at w), then hide
    // the intermediate so the merge deduplicates per subject. Hop patterns
    // that do not bind the partition variable scan their full lists.
    for (const ChainRelaxationRule& rule :
         rules_->ChainRulesFor(q.Key())) {
      const VarId fresh = next_chain_slot++;
      auto chain = ApplyChainRule(q, rule, fresh);
      SPECQP_CHECK(chain.ok()) << chain.status().ToString();
      auto join = std::make_unique<RankJoin>(
          make_scan(chain->hop1, rule.weight / 2.0),
          make_scan(chain->hop2, rule.weight / 2.0),
          std::vector<VarId>{fresh}, ctx);
      inputs.push_back(std::make_unique<ProjectIterator>(
          std::move(join), std::vector<VarId>{fresh}));
    }
    auto merge = std::make_unique<IncrementalMerge>(std::move(inputs), ctx);
    if (leaves != nullptr) {
      leaves->push_back(LeafHandle{i, /*singleton=*/true, merge.get()});
    }
    singleton_units.push_back(Unit{std::move(merge), PatternBound(q, width)});
  }

  // Left-deep fold: join group first (section 3.2.2 step 1), then the
  // singleton merges (step 3).
  Unit acc;
  if (!group_units.empty()) {
    acc = std::move(group_units.front());
    group_units.erase(group_units.begin());
    FoldInto(&acc, &group_units, ctx);
    FoldInto(&acc, &singleton_units, ctx);
  } else {
    SPECQP_CHECK(!singleton_units.empty());
    acc = std::move(singleton_units.front());
    singleton_units.erase(singleton_units.begin());
    FoldInto(&acc, &singleton_units, ctx);
  }
  return std::move(acc.op);
}

}  // namespace specqp
