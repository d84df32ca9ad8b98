#ifndef SPECQP_RDF_TRIPLE_STORE_H_
#define SPECQP_RDF_TRIPLE_STORE_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "rdf/dictionary.h"
#include "rdf/term.h"
#include "rdf/triple.h"
#include "rdf/triple_pattern.h"
#include "util/logging.h"
#include "util/status.h"

namespace specqp {

struct MappedBlockPostings;  // rdf/store_format.h

// Backend interface of a sharded (bundle-backed) TripleStore facade: the
// triples live in N cooperating mapped shard stores, addressed through a
// GLOBAL index space defined as the merged SPO order of all shards — the
// exact order a single-file store over the same triples would use, which
// is what keeps posting lists (and therefore answers) bit-identical
// across backends. Implemented by ShardedStore (rdf/sharded_store.h);
// TripleStore::FromShardedSource wraps an instance so every query-side
// consumer (posting lists, statistics, scans) works unchanged.
class ShardedTripleSource {
 public:
  virtual ~ShardedTripleSource() = default;

  // Total triples across all shards (the global index space).
  virtual size_t NumTriples() const = 0;

  // The triple at a global index; the reference aliases a shard mapping.
  virtual const Triple& TripleAt(uint32_t global_index) const = 0;

  // Hints that TripleAt(global_index) comes soon. Only a performance hint:
  // the default does nothing.
  virtual void PrefetchTriple(uint32_t /*global_index*/) const {}

  // Global indices matching `key`, in the same value order single-file
  // MatchIndices uses (gathered from the shards' indexes and merged).
  // The span stays valid for the source's lifetime.
  virtual std::span<const uint32_t> Match(const PatternKey& key) const = 0;

  // --- failure surface (rdf/mapped_fault.h, degraded reads) ---------------
  //
  // A source that can lose shards at runtime reports the loss here; the
  // defaults describe a monolithic source that is either fully up or gone.

  // Number of shards behind this source (1 for monolithic sources).
  virtual uint32_t ShardsTotal() const { return 1; }

  // Shards currently quarantined (failed at open or faulted at runtime).
  // Answers computed while this is nonzero cover only the survivors.
  virtual uint32_t ShardsFailed() const { return 0; }

  // Monotonic counter bumped every time a shard is quarantined. The
  // engine snapshots it around a query: a change mid-query means derived
  // state (posting-list caches, partial answers) may mix pre- and
  // post-fault data and must be discarded.
  virtual uint64_t FaultEpoch() const { return 0; }

  // Sweeps for latched mapping faults (SIGBUS containment) and
  // quarantines affected shards. Called by the engine before and after
  // each query; a no-op for monolithic sources.
  virtual void PollFaults() const {}
};

// In-memory scored triple store with three permutation indexes (SPO, POS,
// OSP). Together they answer every bound/free combination of a triple
// pattern with a binary-searched contiguous range:
//
//   bound slots      index    prefix
//   --------------   ------   -----------
//   (none)           SPO      full scan
//   s / s,p / s,p,o  SPO      (s) / (s,p) / (s,p,o)
//   p / p,o          POS      (p) / (p,o)
//   o / o,s          OSP      (o) / (o,s)
//
// This plays the role PostgreSQL played in the paper: the source of the
// matches of a triple pattern (posting_list.h adds the ORDER BY score DESC
// on top).
//
// Usage: Add() triples, then Finalize() once; all query methods require a
// finalized store. Duplicate (s,p,o) rows are collapsed by Finalize keeping
// the maximum score.
//
// A second, read-only backend (FromView) serves the same query interface
// zero-copy over a memory-mapped SQPSTOR3 file: the triple array and the
// three permutation indexes are spans into the mapping, so opening does no
// per-triple parsing and no index build (see rdf/mmap_store.h and
// docs/FORMATS.md). View stores are born finalized; Add/AddEncoded on
// them CHECK-fail.
class TripleStore {
 public:
  TripleStore() = default;

  TripleStore(const TripleStore&) = delete;
  TripleStore& operator=(const TripleStore&) = delete;
  TripleStore(TripleStore&&) = default;
  TripleStore& operator=(TripleStore&&) = default;

  // View-backed construction over mapped memory. `triples` must be in SPO
  // order, `spo`/`pos`/`osp` the matching permutations of its indices, and
  // `block_postings` the file's non-null block posting directory. The
  // caller (MmapStore) owns the mapping and guarantees it outlives the
  // store and that span bounds were validated against the file.
  static TripleStore FromView(Dictionary dict,
                              std::span<const Triple> triples,
                              std::span<const uint32_t> spo,
                              std::span<const uint32_t> pos,
                              std::span<const uint32_t> osp,
                              const MappedBlockPostings* block_postings);

  // Sharded-backend construction (rdf/sharded_store.h): every query
  // method delegates per-triple and per-pattern access to `source`,
  // which must outlive the store. Born finalized and read-only; there
  // is no contiguous triple array, so triples() CHECK-fails — callers
  // that need raw iteration (SaveStore) must reject sharded facades.
  static TripleStore FromShardedSource(Dictionary dict,
                                       const ShardedTripleSource* source);

  // --- loading phase -------------------------------------------------------

  // Interns the strings and records the triple. Score must be >= 0.
  void Add(std::string_view s, std::string_view p, std::string_view o,
           double score);

  // Records a triple over already-interned ids.
  void AddEncoded(TermId s, TermId p, TermId o, double score);

  // Builds the permutation indexes; idempotent. Must be called before any
  // query method.
  void Finalize();

  bool finalized() const { return finalized_; }

  // --- query phase ---------------------------------------------------------

  size_t size() const {
    return sharded_ != nullptr ? sharded_->NumTriples() : triples().size();
  }
  const Triple& triple(uint32_t index) const {
    return sharded_ != nullptr ? sharded_->TripleAt(index)
                               : TripleData()[index];
  }
  // Starts loading triple(index) into the cache without waiting for it, so
  // a scan can overlap the memory latency of the triples it reads next.
  // `index` must be a valid triple index.
  void PrefetchTriple(uint32_t index) const {
    if (sharded_ != nullptr) {
      sharded_->PrefetchTriple(index);
      return;
    }
    SPECQP_DCHECK(index < size());
    __builtin_prefetch(TripleData() + index);
  }
  // The contiguous triple array (SPO order). A sharded facade has none —
  // its triples live in N shard mappings — so iteration must go through
  // size()/triple() instead; calling triples() on one CHECK-fails.
  std::span<const Triple> triples() const {
    SPECQP_CHECK(sharded_ == nullptr)
        << "sharded stores have no contiguous triple array";
    return view_ ? triples_view_ : std::span<const Triple>(triples_);
  }

  // Non-null exactly on view stores: zero-copy block-compressed
  // per-predicate posting lists (consumed by BuildPostingList / the
  // posting-list cache).
  const MappedBlockPostings* mapped_block_postings() const {
    return mapped_block_postings_;
  }
  bool is_view() const { return view_; }
  bool is_sharded() const { return sharded_ != nullptr; }
  // The sharded backend behind this facade (nullptr for monolithic
  // stores); the engine uses it to poll the failure surface above.
  const ShardedTripleSource* sharded_source() const { return sharded_; }
  // True when a read this thread makes now may come back cut short: a
  // sharded Match aborts its gather once the thread's stop probe fires.
  // Lists, statistics and counts computed then must not be memoised.
  bool ReadsCutShort() const;

  // Indices (into triples()) of all triples matching the key, in index
  // order. The returned span aliases internal storage.
  std::span<const uint32_t> MatchIndices(const PatternKey& key) const;

  size_t CountMatches(const PatternKey& key) const {
    return MatchIndices(key).size();
  }

  // True iff the fully-bound triple exists.
  bool Contains(TermId s, TermId p, TermId o) const;

  // Number of distinct values taken by the given slot (0 = s, 1 = p, 2 = o)
  // across the matches of `key`. The slot must be free in `key`. Used by the
  // independence-assumption selectivity estimator.
  size_t CountDistinct(const PatternKey& key, int slot) const;

  // Maximum raw score among matches of `key`; 0 if no matches. This is the
  // normaliser of Definition 5.
  double MaxScore(const PatternKey& key) const;

  Dictionary& dict() { return dict_; }
  const Dictionary& dict() const { return dict_; }

  // Convenience: id for an existing term; CHECK-fails if absent (intended
  // for tests and examples where the term is known to exist).
  TermId MustId(std::string_view term) const;

 private:
  void CheckFinalized() const;
  // The triple array of a store that is not sharded. Unlike triples() it
  // carries no CHECK, so the per-row accessors above compile to inline
  // loads instead of an out-of-line call.
  const Triple* TripleData() const {
    return view_ ? triples_view_.data() : triples_.data();
  }
  std::span<const uint32_t> SpoIndex() const {
    return view_ ? spo_view_ : std::span<const uint32_t>(spo_);
  }
  std::span<const uint32_t> PosIndex() const {
    return view_ ? pos_view_ : std::span<const uint32_t>(pos_);
  }
  std::span<const uint32_t> OspIndex() const {
    return view_ ? osp_view_ : std::span<const uint32_t>(osp_);
  }

  Dictionary dict_;
  std::vector<Triple> triples_;
  bool finalized_ = false;

  // Permutations of [0, triples_.size()) sorted by the respective order.
  std::vector<uint32_t> spo_;
  std::vector<uint32_t> pos_;
  std::vector<uint32_t> osp_;

  // View backend (mapped stores): non-owning spans into the mapping.
  bool view_ = false;
  std::span<const Triple> triples_view_;
  std::span<const uint32_t> spo_view_;
  std::span<const uint32_t> pos_view_;
  std::span<const uint32_t> osp_view_;
  const MappedBlockPostings* mapped_block_postings_ = nullptr;

  // Sharded backend (bundle facades): non-owning; see FromShardedSource.
  const ShardedTripleSource* sharded_ = nullptr;
};

}  // namespace specqp

#endif  // SPECQP_RDF_TRIPLE_STORE_H_
