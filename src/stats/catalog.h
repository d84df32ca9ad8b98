#ifndef SPECQP_STATS_CATALOG_H_
#define SPECQP_STATS_CATALOG_H_

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "rdf/posting_list.h"
#include "rdf/store_format.h"
#include "rdf/triple_pattern.h"
#include "rdf/triple_store.h"
#include "stats/calibration.h"
#include "stats/two_bucket_histogram.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace specqp {

// The four precomputed values the paper stores per triple pattern
// (section 3.1.1), over *normalised* (Definition 5) scores:
//
//   m       — number of matching triples
//   sigma_r — score at the rank r where 80% of the score mass is reached
//   s_r     — cumulative score through rank r
//   s_m     — cumulative score through rank m (total mass)
struct PatternStats {
  uint64_t m = 0;
  double sigma_r = 0.0;
  double s_r = 0.0;
  double s_m = 0.0;

  bool empty() const { return m == 0 || s_m <= 0.0; }

  // The two-bucket model induced by the stats; requires !empty().
  TwoBucketHistogram Histogram() const;
};

// Computes and memoises PatternStats per pattern key. The paper precomputes
// these offline for every triple pattern; we compute them on first access
// from the posting list and cache them, which is observationally equivalent
// under the paper's warm-cache methodology (the benchmark harness warms the
// catalog before timing, section 4.4).
//
// Thread-safe: every planning call on an engine shares one catalog. A value
// is computed outside the lock and inserted first-wins (the values are
// deterministic, so a lost race only repeats work). A value computed from
// a read cut short by a stop (TripleStore::ReadsCutShort), or across a
// Clear(), is returned but never memoised: it may describe a truncated or
// retired list. The correction table is written once, at engine
// construction, before any lookup.
class StatisticsCatalog {
 public:
  StatisticsCatalog(const TripleStore* store, PostingListCache* postings,
                    double head_fraction = 0.8);

  StatisticsCatalog(const StatisticsCatalog&) = delete;
  StatisticsCatalog& operator=(const StatisticsCatalog&) = delete;

  // By value: a concurrent Clear() may drop the memoised entry.
  PatternStats GetStats(const PatternKey& key);

  double head_fraction() const { return head_fraction_; }
  size_t size() const;
  void Clear();

  // --- store-file snapshot (docs/FORMATS.md, section kStats) ---------------

  // Exports every memoised entry as on-disk snapshot rows, sorted by key
  // so the artifact is deterministic. Feed to SaveStoreOptions::stats
  // together with head_fraction().
  std::vector<v3::StatsEntry> Snapshot() const;

  // Seeds the memo cache from a store file's snapshot (e.g. via
  // MmapStore::stats_entries()). The rows must have been computed under
  // this catalog's head_fraction — callers check the snapshot's recorded
  // fraction first (Engine::OpenFromPath does). Returns the number of
  // entries inserted; existing entries are left untouched.
  size_t Preload(std::span<const v3::StatsEntry> entries);

  // --- estimate calibration (stats/calibration.h) --------------------------

  // Loads a per-predicate-class correction table fitted by
  // scripts/fit_estimator_correction.py and applies each class's
  // multiplier to the estimated match count m of every entry computed or
  // preloaded *afterwards* (call before the first GetStats — Engine does,
  // at construction). Returns the number of table entries loaded; 0 for a
  // missing/unreadable file (no corrections, not an error).
  size_t LoadCalibration(const std::string& path);

  // The multiplier that applies to `key` (1.0 when uncalibrated).
  double CorrectionFor(const PatternKey& key) const;

  size_t num_corrections() const { return corrections_.size(); }

 private:
  PatternStats Compute(const PatternKey& key);
  // Scales stats.m by the key's correction (rounded, kept >= 1 for
  // non-empty patterns so a strong down-correction cannot declare a
  // matching pattern empty).
  void ApplyCorrection(const PatternKey& key, PatternStats* stats) const;

  const TripleStore* store_;
  PostingListCache* postings_;
  double head_fraction_;
  mutable Mutex mu_;
  std::unordered_map<PatternKey, PatternStats, PatternKeyHash> cache_
      SPECQP_GUARDED_BY(mu_);
  uint64_t generation_ SPECQP_GUARDED_BY(mu_) = 0;  // Clear() count
  std::unordered_map<std::string, double> corrections_;
};

}  // namespace specqp

#endif  // SPECQP_STATS_CATALOG_H_
