#ifndef SPECQP_STATS_SELECTIVITY_H_
#define SPECQP_STATS_SELECTIVITY_H_

#include <cstdint>
#include <string>
#include <unordered_map>

#include "query/query.h"
#include "rdf/triple_store.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace specqp {

// Join-cardinality estimation for the expected-score estimator
// (m12 = m · m' · φ12, section 3.1.2). The paper uses *exact* join
// selectivities (footnote 3); kIndependence is the classical
// 1/max(distinct) System-R estimate, kept as an ablation
// (bench/ablation_selectivity).
//
// Thread-safe: every planning call on an engine shares the memos. Counts
// are computed outside the lock and inserted first-wins (they are
// deterministic). A count cut short by the thread's stop probe, or
// computed across a Clear(), is returned but never memoised: it may
// describe a truncated read or a retired shard set.
class SelectivityEstimator {
 public:
  enum class Mode {
    // Exact answer count of the full query (memoised backtracking join) —
    // the paper's setting: cardinalities are taken exactly.
    kExact,
    // Exact pairwise join counts chained left-deep with a conditional
    // independence assumption for 3+ patterns (ablation).
    kPairwiseExact,
    // Classical System-R estimate φ = Π_v 1/max(d_a(v), d_b(v)) (ablation).
    kIndependence,
  };

  explicit SelectivityEstimator(const TripleStore* store,
                                Mode mode = Mode::kExact);

  SelectivityEstimator(const SelectivityEstimator&) = delete;
  SelectivityEstimator& operator=(const SelectivityEstimator&) = delete;

  Mode mode() const { return mode_; }

  // Number of join results between two patterns joined on their shared
  // variables; a cross product when none are shared. Counts exactly (via a
  // two-sided group-count hash join in O(m_a + m_b)) unless the mode is
  // kIndependence.
  double JoinCardinality(const TriplePattern& a, const TriplePattern& b);

  // φ_ab = JoinCardinality / (m_a · m_b); 0 when either side is empty.
  double Selectivity(const TriplePattern& a, const TriplePattern& b);

  // Estimated answer count of the whole query (m12 = m·m'·φ chain, or the
  // memoised exact count under kExact).
  double QueryCardinality(const Query& query);

  // Exact answer count (memoised). Each connected component of the query
  // is counted on its own by a backtracking join in
  // cheapest-connected-pattern-first order, and the query's count is the
  // product (saturating at UINT64_MAX). A component's last pattern is
  // counted by its match range instead of binding each match when no
  // variable repeats inside it. Polls the thread's stop probe; a stopped
  // count is a partial one.
  uint64_t ExactQueryCardinality(const Query& query);

  size_t memo_size() const;
  // Drops both memos (the engine calls this when its store loses a shard).
  void Clear();

 private:
  double ExactPairCount(const TriplePattern& a, const TriplePattern& b);
  double IndependencePairCount(const TriplePattern& a, const TriplePattern& b);
  double ChainedQueryCardinality(const Query& query);

  const TripleStore* store_;
  Mode mode_;
  // Memo keys: textual encodings of the pattern keys + variable layout.
  mutable Mutex mu_;
  std::unordered_map<std::string, double> pair_memo_ SPECQP_GUARDED_BY(mu_);
  std::unordered_map<std::string, uint64_t> query_memo_
      SPECQP_GUARDED_BY(mu_);
  uint64_t generation_ SPECQP_GUARDED_BY(mu_) = 0;  // Clear() count
};

}  // namespace specqp

#endif  // SPECQP_STATS_SELECTIVITY_H_
