#include "stats/selectivity.h"

#include <algorithm>
#include <array>
#include <limits>
#include <span>
#include <vector>

#include "util/logging.h"
#include "util/stop_probe.h"
#include "util/string_util.h"

namespace specqp {

namespace {

struct SharedSlot {
  VarId var;
  int slot_a;
  int slot_b;
};

std::vector<SharedSlot> SharedSlots(const TriplePattern& a,
                                    const TriplePattern& b) {
  VarId va[3];
  const int na = a.Variables(va);
  std::vector<SharedSlot> shared;
  for (int i = 0; i < na; ++i) {
    const int sb = SlotOfVar(b, va[i]);
    if (sb >= 0) {
      shared.push_back(SharedSlot{va[i], SlotOfVar(a, va[i]), sb});
    }
  }
  std::sort(shared.begin(), shared.end(),
            [](const SharedSlot& x, const SharedSlot& y) {
              return x.var < y.var;
            });
  return shared;
}

struct JoinKey {
  std::array<TermId, 3> v = {kInvalidTermId, kInvalidTermId, kInvalidTermId};
  friend bool operator==(const JoinKey& a, const JoinKey& b) {
    return a.v == b.v;
  }
};

struct JoinKeyHash {
  size_t operator()(const JoinKey& k) const {
    uint64_t h = 0xCBF29CE484222325ULL;
    for (TermId t : k.v) {
      h ^= t;
      h *= 0x100000001B3ULL;
    }
    return static_cast<size_t>(h);
  }
};

std::string MemoKey(const TriplePattern& a, const TriplePattern& b,
                    const std::vector<SharedSlot>& shared) {
  const PatternKey ka = a.Key();
  const PatternKey kb = b.Key();
  std::string key = StrFormat("%u/%u/%u|%u/%u/%u", ka.s, ka.p, ka.o, kb.s,
                              kb.p, kb.o);
  for (const SharedSlot& s : shared) {
    key += StrFormat("|%d:%d", s.slot_a, s.slot_b);
  }
  return key;
}

// True when a variable occurs twice in `q` (e.g. ?x <p> ?x): only then can
// a triple in the pattern's match range fail to bind it.
bool RepeatsVariable(const TriplePattern& q) {
  VarId vars[3];
  const int distinct = q.Variables(vars);
  const int slots = static_cast<int>(q.s.is_variable()) +
                    static_cast<int>(q.p.is_variable()) +
                    static_cast<int>(q.o.is_variable());
  return distinct < slots;
}

uint64_t SaturatingMul(uint64_t a, uint64_t b) {
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  if (a != 0 && b > kMax / a) return kMax;
  return a * b;
}

}  // namespace

SelectivityEstimator::SelectivityEstimator(const TripleStore* store, Mode mode)
    : store_(store), mode_(mode) {
  SPECQP_CHECK(store_ != nullptr);
}

double SelectivityEstimator::JoinCardinality(const TriplePattern& a,
                                             const TriplePattern& b) {
  const std::vector<SharedSlot> shared = SharedSlots(a, b);
  if (shared.empty()) {
    // Cross product.
    return static_cast<double>(store_->CountMatches(a.Key())) *
           static_cast<double>(store_->CountMatches(b.Key()));
  }
  const std::string memo_key = MemoKey(a, b, shared);
  uint64_t generation = 0;
  {
    MutexLock lock(mu_);
    const auto it = pair_memo_.find(memo_key);
    if (it != pair_memo_.end()) return it->second;
    generation = generation_;
  }

  const double count = (mode_ == Mode::kIndependence)
                           ? IndependencePairCount(a, b)
                           : ExactPairCount(a, b);
  // A stopped sharded store answers lookups empty; never memoise that.
  if (store_->ReadsCutShort()) return count;
  MutexLock lock(mu_);
  if (generation != generation_) return count;  // straddled a Clear()
  return pair_memo_.emplace(memo_key, count).first->second;
}

size_t SelectivityEstimator::memo_size() const {
  MutexLock lock(mu_);
  return pair_memo_.size() + query_memo_.size();
}

void SelectivityEstimator::Clear() {
  MutexLock lock(mu_);
  pair_memo_.clear();
  query_memo_.clear();
  ++generation_;
}

double SelectivityEstimator::Selectivity(const TriplePattern& a,
                                         const TriplePattern& b) {
  const double ma = static_cast<double>(store_->CountMatches(a.Key()));
  const double mb = static_cast<double>(store_->CountMatches(b.Key()));
  if (ma <= 0.0 || mb <= 0.0) return 0.0;
  return JoinCardinality(a, b) / (ma * mb);
}

double SelectivityEstimator::ExactPairCount(const TriplePattern& a,
                                            const TriplePattern& b) {
  const std::vector<SharedSlot> shared = SharedSlots(a, b);
  // Group-count both sides on the join key, then sum products: the join
  // cardinality without materialising results, O(m_a + m_b).
  std::unordered_map<JoinKey, uint64_t, JoinKeyHash> counts_a;
  for (uint32_t idx : store_->MatchIndices(a.Key())) {
    const Triple& t = store_->triple(idx);
    if (!ConsistentMatch(a, t)) continue;
    JoinKey key;
    for (size_t i = 0; i < shared.size(); ++i) {
      key.v[i] = SlotValue(t, shared[i].slot_a);
    }
    ++counts_a[key];
  }
  double total = 0.0;
  for (uint32_t idx : store_->MatchIndices(b.Key())) {
    const Triple& t = store_->triple(idx);
    if (!ConsistentMatch(b, t)) continue;
    JoinKey key;
    for (size_t i = 0; i < shared.size(); ++i) {
      key.v[i] = SlotValue(t, shared[i].slot_b);
    }
    auto it = counts_a.find(key);
    if (it != counts_a.end()) total += static_cast<double>(it->second);
  }
  return total;
}

double SelectivityEstimator::IndependencePairCount(const TriplePattern& a,
                                                   const TriplePattern& b) {
  const std::vector<SharedSlot> shared = SharedSlots(a, b);
  const double ma = static_cast<double>(store_->CountMatches(a.Key()));
  const double mb = static_cast<double>(store_->CountMatches(b.Key()));
  double phi = 1.0;
  for (const SharedSlot& s : shared) {
    const double da =
        static_cast<double>(store_->CountDistinct(a.Key(), s.slot_a));
    const double db =
        static_cast<double>(store_->CountDistinct(b.Key(), s.slot_b));
    const double denom = std::max(da, db);
    phi *= (denom > 0.0) ? 1.0 / denom : 0.0;
  }
  return ma * mb * phi;
}

double SelectivityEstimator::QueryCardinality(const Query& query) {
  if (mode_ == Mode::kExact) {
    return static_cast<double>(ExactQueryCardinality(query));
  }
  return ChainedQueryCardinality(query);
}

double SelectivityEstimator::ChainedQueryCardinality(const Query& query) {
  const auto& patterns = query.patterns();
  SPECQP_CHECK(!patterns.empty());
  double n = static_cast<double>(store_->CountMatches(patterns[0].Key()));
  for (size_t j = 1; j < patterns.size(); ++j) {
    const double mj =
        static_cast<double>(store_->CountMatches(patterns[j].Key()));
    // Join against the earliest previous pattern sharing a variable.
    double phi = 1.0;
    bool found = false;
    for (size_t i = 0; i < j; ++i) {
      if (!query.SharedVars(i, j).empty()) {
        phi = Selectivity(patterns[i], patterns[j]);
        found = true;
        break;
      }
    }
    n *= found ? mj * phi : mj;
  }
  return n;
}

uint64_t SelectivityEstimator::ExactQueryCardinality(const Query& query) {
  const auto& patterns = query.patterns();
  SPECQP_CHECK(!patterns.empty());

  // Memoise on the full query signature (pattern keys + variable layout).
  std::string memo_key;
  for (const TriplePattern& q : patterns) {
    const PatternKey key = q.Key();
    memo_key += StrFormat("%u/%u/%u", key.s, key.p, key.o);
    VarId vars[3];
    const int nv = q.Variables(vars);
    for (int v = 0; v < nv; ++v) {
      memo_key += StrFormat(":%d@%u", SlotOfVar(q, vars[v]), vars[v]);
    }
    memo_key += "|";
  }
  uint64_t generation = 0;
  {
    MutexLock lock(mu_);
    const auto memo_it = query_memo_.find(memo_key);
    if (memo_it != query_memo_.end()) return memo_it->second;
    generation = generation_;
  }

  // Evaluation order: cheapest pattern first, then repeatedly the cheapest
  // pattern connected to what is already bound (performance only; the
  // count is order-independent). A pick connected to nothing bound starts
  // the next connected component of the query; `starts` records where.
  std::vector<size_t> order;
  std::vector<size_t> starts;
  {
    std::vector<size_t> remaining(patterns.size());
    for (size_t i = 0; i < remaining.size(); ++i) remaining[i] = i;
    std::vector<bool> bound_vars(query.num_vars(), false);
    auto cost = [&](size_t i) {
      return store_->CountMatches(patterns[i].Key());
    };
    while (!remaining.empty()) {
      size_t best_pos = 0;
      bool best_connected = false;
      for (size_t pos = 0; pos < remaining.size(); ++pos) {
        VarId vars[3];
        const int nv = patterns[remaining[pos]].Variables(vars);
        bool connected = order.empty();
        for (int v = 0; v < nv && !connected; ++v) {
          connected = bound_vars[vars[v]];
        }
        if ((connected && !best_connected) ||
            (connected == best_connected &&
             cost(remaining[pos]) < cost(remaining[best_pos]))) {
          best_pos = pos;
          best_connected = connected;
        }
      }
      const size_t chosen = remaining[best_pos];
      remaining.erase(remaining.begin() + static_cast<ptrdiff_t>(best_pos));
      if (order.empty() || !best_connected) starts.push_back(order.size());
      order.push_back(chosen);
      VarId vars[3];
      const int nv = patterns[chosen].Variables(vars);
      for (int v = 0; v < nv; ++v) bound_vars[vars[v]] = true;
    }
  }

  std::vector<TermId> bindings(query.num_vars(), kInvalidTermId);
  bool stopped = false;
  uint32_t steps = 0;

  // Backtracking index-nested-loop join over order[depth, end), narrowing
  // each lookup with already-bound variables. Returns the number of
  // bindings of those patterns consistent with `bindings`.
  auto count_from = [&](auto&& self, size_t depth, size_t end) -> uint64_t {
    const TriplePattern& q = patterns[order[depth]];
    // Bind known variables into the lookup key.
    PatternKey key = q.Key();
    auto refine = [&bindings](const PatternTerm& term, TermId* out) {
      if (term.is_variable() && bindings[term.var()] != kInvalidTermId) {
        *out = bindings[term.var()];
      }
    };
    refine(q.s, &key.s);
    refine(q.p, &key.p);
    refine(q.o, &key.o);
    const std::span<const uint32_t> matches = store_->MatchIndices(key);
    const bool last = depth + 1 == end;
    // Every match of the last pattern binds its free variables, unless one
    // repeats: the range size is then the count.
    if (last && !RepeatsVariable(q)) return matches.size();

    uint64_t count = 0;
    for (uint32_t idx : matches) {
      if ((++steps & 1023u) == 0 && ScopedStopProbe::StopRequested()) {
        stopped = true;
      }
      if (stopped) break;
      const Triple& t = store_->triple(idx);
      if (!ConsistentMatch(q, t)) continue;
      // Bind the still-free variables; remember which to unbind.
      VarId bound_here[3];
      int num_bound = 0;
      auto bind = [&](const PatternTerm& term, TermId value) -> bool {
        if (!term.is_variable()) return true;
        TermId& slot = bindings[term.var()];
        if (slot == kInvalidTermId) {
          slot = value;
          bound_here[num_bound++] = term.var();
          return true;
        }
        return slot == value;
      };
      if (bind(q.s, t.s) && bind(q.p, t.p) && bind(q.o, t.o)) {
        count += last ? 1 : self(self, depth + 1, end);
      }
      for (int i = 0; i < num_bound; ++i) {
        bindings[bound_here[i]] = kInvalidTermId;
      }
    }
    return count;
  };

  // Components share no variable, so the answers are their cross product.
  uint64_t count = 1;
  for (size_t c = 0; c < starts.size() && count > 0 && !stopped; ++c) {
    const size_t end = c + 1 < starts.size() ? starts[c + 1] : order.size();
    count = SaturatingMul(count, count_from(count_from, starts[c], end));
  }
  // A stopped count may be partial, and a stopped sharded store answers
  // lookups empty: neither is memoised.
  if (stopped || store_->ReadsCutShort()) return count;
  MutexLock lock(mu_);
  if (generation != generation_) return count;  // straddled a Clear()
  return query_memo_.emplace(std::move(memo_key), count).first->second;
}

}  // namespace specqp
