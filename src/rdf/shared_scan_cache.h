#ifndef SPECQP_RDF_SHARED_SCAN_CACHE_H_
#define SPECQP_RDF_SHARED_SCAN_CACHE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "rdf/posting_list.h"
#include "rdf/triple_pattern.h"
#include "rdf/triple_store.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace specqp {

// Batch-scoped shared-scan layer above the PostingListCache.
//
// A query batch touches the same pattern keys over and over — identical
// patterns across queries, and many object-bound siblings (?s <p> <o_i>)
// of one predicate. This cache resolves every distinct key of a batch
// exactly once (Prepare), pins the resolved lists for the lifetime of the
// batch (the shared_ptrs held here keep the underlying cache from evicting
// them mid-batch), and serves the per-query operator trees lock-cheaply
// during execution.
//
// Shared scans: when several object-bound keys share a predicate, their
// posting lists are *derived* from a single pass over the predicate's base
// list (?s <p> ?o) instead of one store probe + sort per key. The derived
// lists are byte-identical to what BuildPostingList would produce (same
// entry set, same normalisation arithmetic, same sort order — see
// DeriveObjectList), so execution over them returns bit-identical answers;
// they are also published back into the underlying PostingListCache so
// later sequential queries reuse them. With a mapped store the base list
// is a zero-copy block view, making the derivation pass the only cost.
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

  SharedScanCache(const TripleStore* store, PostingListCache* base);

  SharedScanCache(const SharedScanCache&) = delete;
  SharedScanCache& operator=(const SharedScanCache&) = delete;

  // Resolves every key in `keys` (duplicates and already-resolved keys are
  // skipped). Object-bound sibling keys of one predicate are derived from
  // a single shared scan of the predicate's base list when the estimated
  // derivation cost undercuts per-key builds; everything else goes through
  // the base cache. Call from one thread, before execution starts.
  void Prepare(std::span<const PatternKey> keys);

  // The key's posting list: from the batch map when prepared (a shared
  // scan hit), else through the base cache (counted as a miss here, and
  // inserted so the next Get hits). Thread-safe.
  [[nodiscard]] std::shared_ptr<const PostingList> Get(const PatternKey& key);

  Counters counters() const;
  size_t size() const;

  // Derives the posting list of (?s <p> <o>) from the predicate's base
  // list in one pass, bit-identical to BuildPostingList(store, key):
  // identical entry set (the base list covers every p-triple), identical
  // normalisation (scores recomputed from the store's raw triple scores,
  // not rescaled from the base list's normalised ones) and identical
  // (score desc, triple index asc) order. Exposed for tests.
  static PostingList DeriveObjectList(const TripleStore& store,
                                      const PostingList& base, TermId object);

 private:
  std::shared_ptr<const PostingList> ResolveOne(const PatternKey& key);
  // Resolves all of `objects` under predicate `p` from one base-list pass.
  void DeriveGroup(TermId p, const std::vector<TermId>& objects);

  const TripleStore* store_;
  PostingListCache* base_;

  mutable Mutex mu_;
  std::unordered_map<PatternKey, std::shared_ptr<const PostingList>,
                     PatternKeyHash>
      map_ SPECQP_GUARDED_BY(mu_);
  Counters counters_ SPECQP_GUARDED_BY(mu_);
};

}  // namespace specqp

#endif  // SPECQP_RDF_SHARED_SCAN_CACHE_H_
