#ifndef SPECQP_RDF_SHARED_SCAN_CACHE_H_
#define SPECQP_RDF_SHARED_SCAN_CACHE_H_

#include <cstdint>
#include <memory>
#include <span>

#include "rdf/posting_list.h"
#include "rdf/triple_pattern.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace specqp {

// A query batch's pin map over the engine's PostingListCache.
//
// A batch touches the same pattern keys over and over — identical
// patterns across queries, and many object-bound siblings (?s <p> <o_i>)
// of one predicate. Prepare hands every key the batch has not pinned yet
// to PostingListCache::Resolve, which pins resident lists as they are,
// derives non-resident siblings from one shared pass over the predicate's
// base list (see DeriveObjectLists), and builds the rest. The shared_ptrs
// held here keep the underlying cache from evicting the batch's lists
// mid-batch, and Get serves them lock-cheaply to the per-query operator
// trees during execution.
//
// Thread-safety: Prepare runs single-threaded (the batch prepare phase);
// Get is safe to call from concurrent per-query execution tasks.
class SharedScanCache {
 public:
  struct Counters {
    uint64_t hits = 0;            // Get() served from the batch map
    uint64_t misses = 0;          // Get() fell through to the base cache
    uint64_t resolved_lists = 0;  // distinct lists resolved by Prepare()
    uint64_t derived_lists = 0;   // of those, derived from a base scan
    uint64_t base_scans = 0;      // base predicate lists used for derivation
  };

  // `derive` false: Prepare builds every missing key as Get does, with no
  // shared base-list pass (PostingListCache::Resolve).
  explicit SharedScanCache(PostingListCache* base, bool derive = true);

  SharedScanCache(const SharedScanCache&) = delete;
  SharedScanCache& operator=(const SharedScanCache&) = delete;

  // Pins every key in `keys` through PostingListCache::Resolve
  // (duplicates and already-pinned keys are skipped). Call from one
  // thread, before execution starts.
  void Prepare(std::span<const PatternKey> keys);

  // The key's posting list: from the batch map when prepared (a shared
  // scan hit), else through the base cache (counted as a miss here, and
  // pinned so the next Get hits). Thread-safe.
  [[nodiscard]] std::shared_ptr<const PostingList> Get(const PatternKey& key);

  Counters counters() const;

 private:
  PostingListCache* base_;
  const bool derive_;

  mutable Mutex mu_;
  PostingListCache::Pins map_ SPECQP_GUARDED_BY(mu_);
  Counters counters_ SPECQP_GUARDED_BY(mu_);
};

}  // namespace specqp

#endif  // SPECQP_RDF_SHARED_SCAN_CACHE_H_
