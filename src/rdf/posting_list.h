#ifndef SPECQP_RDF_POSTING_LIST_H_
#define SPECQP_RDF_POSTING_LIST_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "rdf/posting_blocks.h"
#include "rdf/posting_entry.h"
#include "rdf/triple_pattern.h"
#include "rdf/triple_store.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace specqp {

// All matches of one pattern, sorted by descending normalised score (ties
// broken by triple index for determinism). This is the "sorted list of
// matches" every operator in the paper consumes via sorted access.
//
// Two backends behind one read interface:
//   * flat lists hold their entries in `entries` (lists built over an
//     in-memory store, partition pieces, shared-scan derivations);
//   * block-compressed lists carry a PostingBlockSource in `blocks` and
//     have an EMPTY `entries` — their entries exist only block-by-block,
//     decoded on demand (lists served by a mapped store or a bundle).
//
// BlockIterator (below) is the canonical access path and reads both
// uniformly; code that touches `entries` directly must first check
// !blocked() (flat-only consumers assert this).
struct PostingList {
  std::vector<PostingEntry> entries;
  std::unique_ptr<PostingBlockSource> blocks;  // block backend, or null
  double max_raw_score = 0.0;  // the Definition 5 normaliser

  // A zero-copy block-compressed list over a mapped store's header and
  // payload sections (the caller keeps the mapping alive). `id_limit`
  // bounds decoded triple indexes (pass the store's triple count).
  static PostingList BlockView(std::span<const PostingBlockHeader> headers,
                               std::span<const uint8_t> payload,
                               uint64_t entry_count, double max_raw_score,
                               uint32_t id_limit);

  // An owning block-compressed list (re-encoded scan results, tests).
  static PostingList FromBlocks(std::vector<PostingBlockHeader> headers,
                                std::vector<uint8_t> payload,
                                uint64_t entry_count, double max_raw_score,
                                uint32_t id_limit);

  bool blocked() const { return blocks != nullptr; }
  size_t size() const {
    return blocks != nullptr ? static_cast<size_t>(blocks->entry_count())
                             : entries.size();
  }
  bool empty() const { return size() == 0; }
};

// Cursor over a PostingList that understands both backends: flat spans are
// walked directly, block-compressed lists are decoded one block at a time
// into the source's reusable per-block buffers. This is the canonical
// access path for everything that consumes posting lists — PatternScan,
// the store writer, partitioning, shared-scan derivation, the stats
// catalog.
//
// Blocks are decoded only when an entry in them is read, and the block
// headers never change which entries the caller observes, only how many
// bytes get decoded on the way: PeekScore() at an undecoded block boundary
// answers from the header's max_score, which the format guarantees is
// bit-equal to the block's first entry score — so bound computations
// (PatternScan::UpperBound) are bit-identical with and without decoding.
//
// `decoded_counter` / `skipped_counter` (both optional) receive this
// iterator's per-block accounting: +1 decoded per block this iterator
// materialises (memo hits included — the counters describe the access
// pattern, not cache state, so they are deterministic), and +1 skipped per
// block it never needed — the tail a top-k scan leaves unread — charged by
// SkipAll() or when the iterator is destroyed. Flat lists touch neither
// counter. The iterator does not own the list; the caller keeps `list`
// (and its mapping) alive.
class BlockIterator {
 public:
  explicit BlockIterator(const PostingList* list,
                         uint64_t* decoded_counter = nullptr,
                         uint64_t* skipped_counter = nullptr);
  ~BlockIterator();

  BlockIterator(const BlockIterator&) = delete;
  BlockIterator& operator=(const BlockIterator&) = delete;

  size_t size() const { return size_; }
  size_t position() const { return pos_; }
  bool AtEnd() const { return pos_ >= size_; }

  // True once the backing block source failed a decode during this
  // iterator's lifetime (always false for flat lists). Scans poll this
  // each Next(): entries served after a fault are shape-safe
  // placeholders, not data, so the query must stop and fail with IoError.
  // Scoped to the iterator — a later query re-decodes and recovers when
  // the fault was transient, fails afresh when the block is corrupt.
  bool faulted() const;

  // The current entry's score without forcing a decode: exact when the
  // position's block is materialised (or the list is flat), the block
  // header's max_score — bit-equal to the same value — when positioned at
  // an undecoded block boundary. Precondition: !AtEnd().
  double PeekScore() const;

  // The current entry, materialising its block. Precondition: !AtEnd().
  // The reference is valid until the iterator moves to another block.
  const PostingEntry& Entry();

  // The entry `distance` positions past the current one if it can be
  // addressed as things stand: in a flat list, or inside the block that
  // is materialised now. nullptr otherwise (past the end, or in a block
  // not yet decoded). Never decodes, so the block counters cannot move;
  // scans use it to prefetch the triples of entries they will read next.
  const PostingEntry* LookAhead(size_t distance) const {
    const size_t ahead = pos_ + distance;
    if (ahead >= size_) return nullptr;
    if (source_ == nullptr) return &flat_[ahead];
    if (cur_ == nullptr || ahead / kPostingBlockEntries != cur_block_) {
      return nullptr;
    }
    return &cur_->entries[ahead % kPostingBlockEntries];
  }

  // Steps to the next entry. Decoding stays deferred when the step lands
  // exactly on a block boundary: PeekScore() answers from the header
  // there, so a scan that stops before reading the entry leaves the block
  // undecoded.
  void Advance();

  // Exhausts the iterator, charging all unvisited blocks as skipped now
  // (operators discard provably dead inputs through this, so the charge
  // lands in ExecStats before the merge, not at tree teardown).
  void SkipAll();

 private:
  // Decodes block `b` (memoised in the source) and charges it as decoded.
  void Materialize(size_t b);

  std::span<const PostingEntry> flat_;
  const PostingBlockSource* source_ = nullptr;
  size_t size_ = 0;
  size_t pos_ = 0;
  std::shared_ptr<const DecodedPostingBlock> cur_;
  size_t cur_block_ = SIZE_MAX;
  size_t accounted_until_ = 0;  // first block not yet charged either way
  uint64_t faults_at_start_ = 0;  // source fault_count() at construction
  uint64_t* decoded_counter_ = nullptr;
  uint64_t* skipped_counter_ = nullptr;
};

// Builds a posting list for `key` by scanning the store's match range,
// sorting by score, and normalising. Standalone helper used by the cache
// and by tests. When the store is a mapped view and `key` is a pure
// predicate pattern (?s <p> ?o), returns a zero-copy BlockView over the
// file's posting directory instead of building.
[[nodiscard]] PostingList BuildPostingList(const TripleStore& store,
                                           const PatternKey& key);

// Derives the posting lists of (?s <p> <o>) for every o of `objects`
// (distinct) from p's base list (?s <p> ?o) in one pass. Element i holds
// the entries BuildPostingList(store, {?, p, objects[i]}) would: the same
// entry set (the base list covers every p-triple), the same normalisation
// (scores recomputed from the store's raw triple scores, not rescaled
// from the base list's normalised ones) and the same (score desc, triple
// index asc) order. The results are always flat, also where
// BuildPostingList would re-encode the same entries into blocks.
[[nodiscard]] std::vector<PostingList> DeriveObjectLists(
    const TripleStore& store, const PostingList& base,
    std::span<const TermId> objects);

// Materialised posting lists keyed by PatternKey, built on first use. The
// cache is the one place that builds lists and inserts them: Get builds
// one key, Resolve pins a whole set of keys and derives object-bound
// siblings from a shared pass over their predicate's base list, and
// GetPartitions memoises a list's hash-partition pieces.
//
// This models the paper's setup of a database engine that returns matches
// "in sorted order" with warm caches (section 4.4: 5 runs, average of the
// last 3): the first access pays the sort, later accesses are pointer
// lookups.
//
// Thread-safe: one mutex guards one map, which holds plain lists and
// partition piece sets alike, and the byte count, LRU clock and counters
// beside it. No lock is held while a list is built, derived or
// partitioned: a call looks its key up under the lock, does the work with
// the lock released, and inserts under it again, first-wins — when
// another call inserted the key meanwhile, that entry is what the caller
// gets, so every holder pins one object. Two calls that miss the same key
// at once both build it. An insert is refused, and the list still served,
// when the read behind it may have been cut short
// (TripleStore::ReadsCutShort), when an injected "cache.alloc" fault
// fires, or when Clear() ran since the lookup missed (the list may
// describe a retired shard set).
//
// Eviction: when `budget_bytes` is non-zero, the whole cache keeps within
// it (approximate byte accounting via ApproxBytes). Each call of Get,
// Resolve and GetPartitions ends with one pass over the whole cache.
// Lists and piece sets still referenced outside the cache ("pinned" by a
// live operator tree, a batch, or the caller the call returns them to)
// are never evicted, so pinned entries can hold the cache over budget
// until their pins drop; the next call on any key then trims it.
//
// Block-compressed lists are accounted at block granularity: a blocked
// list's footprint grows as iterators decode blocks into its
// PostingBlockSource memo, and an over-budget pass first RELEASES decoded
// blocks (cheapest-to-restore bytes, LRU entry order) before falling back
// to whole-entry eviction. Releasing is safe even for pinned lists — live
// iterators hold their current block through a shared_ptr, and a released
// block simply decodes again on next touch — so cold queries keep only
// the blocks their bound actually required.
//
// Cost-aware eviction (`cost_aware` = true, EngineOptions::cache_cost_aware):
// victim selection weighs how expensive an entry is to rebuild, not just
// how recently it was used. Each entry carries a GreedyDual-style priority
//
//   priority = inflation at last use + rebuild_cost(entry)
//
// where rebuild_cost is the comparison-sort estimate n·(log2(n+1)+1) over
// the n posting entries the entry holds — for a plain list, the same
// per-pattern match count m the StatisticsCatalog snapshots. Victims go in ascending priority, and the
// inflation rises to each victim's priority, so cheap lists age out
// quickly while an expensive-to-rebuild list can outlive many cheaper,
// more recently used ones until the inflation catches up. With cost_aware
// = false the policy is plain LRU.
class PostingListCache {
 public:
  // `budget_bytes` == 0 means unbounded (no eviction).
  explicit PostingListCache(const TripleStore* store, size_t budget_bytes = 0,
                            bool cost_aware = false)
      : store_(store),
        budget_bytes_(budget_bytes),
        cost_aware_(cost_aware) {}

  PostingListCache(const PostingListCache&) = delete;
  PostingListCache& operator=(const PostingListCache&) = delete;

  // Shared ownership so operator trees can outlive cache eviction. The
  // returned pin is what keeps the list resident — discarding it silently
  // re-triggers a build on the next Get, hence [[nodiscard]].
  [[nodiscard]] std::shared_ptr<const PostingList> Get(const PatternKey& key);

  // The key's list if resident, nullptr otherwise — never builds and never
  // touches the counters or the LRU clock. PlanExecutor sizes its
  // serial-or-partitioned choice through it; tests probe residency.
  [[nodiscard]] std::shared_ptr<const PostingList> Peek(const PatternKey& key);

  // Lists held by a caller (a batch) so they stay resident while it runs.
  using Pins = std::unordered_map<PatternKey,
                                  std::shared_ptr<const PostingList>,
                                  PatternKeyHash>;
  // What Resolve derived.
  struct ResolveCounts {
    uint64_t derived_lists = 0;  // lists derived from a base-list pass
    uint64_t base_scans = 0;     // base lists passed over to derive them
  };

  // Adds every key of `keys` that `pins` lacks to `pins`, with its list:
  //   * a resident list is pinned as it is (a hit); residents are pinned
  //     before anything is built, so this call cannot evict them;
  //   * non-resident object-bound siblings (?s <p> <o_i>) of one predicate
  //     are derived from one pass over p's base list (DeriveObjectLists)
  //     when that undercuts per-key builds, and count as neither a hit nor
  //     a miss (the base list itself is fetched as Get fetches it);
  //   * every other key is built the way Get builds it (a miss).
  // Derived lists enter the cache through Get's insert step. `counts`
  // (optional) accumulates what was derived. With `derive` false every
  // missing key is built as Get builds it. Builds run sibling groups
  // first (by predicate), then the remaining keys in the order given.
  void Resolve(std::span<const PatternKey> keys, Pins* pins,
               ResolveCounts* counts = nullptr, bool derive = true);

  // The key's posting list split into `num_partitions` hash partitions on
  // triple slot `slot` (see rdf/posting_partition.h), memoised so repeated
  // parallel executions of the same query do not re-partition on every
  // Execute(). A piece set is an entry of the same map as the plain lists,
  // under the same lock, clock and byte budget; a lookup counts one hit or
  // miss (the base list it is cut from is fetched uncounted).
  [[nodiscard]] std::vector<std::shared_ptr<const PostingList>> GetPartitions(
      const PatternKey& key, int slot, uint32_t num_partitions);

  // Drops every resident list AND resets the hit/miss/eviction counters,
  // so hit rates measured across Clear() boundaries (e.g. a benchmark's
  // cold phase after a warm phase) start from zero. A list whose lookup
  // missed before the Clear() is served to its caller but not inserted.
  void Clear();

  uint64_t hits() const;
  uint64_t misses() const;
  uint64_t evictions() const;
  size_t size() const;   // resident lists (piece sets not counted)
  size_t bytes() const;  // approximate resident bytes, piece sets included
  size_t budget_bytes() const { return budget_bytes_; }

  // Approximate heap footprint of one list (entries + header).
  static size_t ApproxBytes(const PostingList& list);

  // Rebuild-cost estimate (comparison sort over n entries) used by the
  // cost-aware policy and by Resolve's derive-or-build choice; exposed for
  // tests.
  static double RebuildCost(size_t num_entries);

 private:
  using Lists = std::vector<std::shared_ptr<const PostingList>>;

  // A plain list has no partition slot and a partition count of 0; a
  // piece set carries both.
  struct Key {
    PatternKey pattern;
    int slot = -1;
    uint32_t num_partitions = 0;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& key) const;
  };
  struct Entry {
    Lists lists;  // the one plain list, or the pieces
    size_t bytes = 0;
    uint64_t last_used = 0;  // LRU clock
    double priority = 0.0;   // GreedyDual priority (cost-aware policy)
  };
  using Map = std::unordered_map<Key, Entry, KeyHash>;

  // Summed over an entry's lists.
  static size_t BytesOf(const Lists& lists);
  static double RebuildCostOf(const Lists& lists);
  // The key's entry (refreshing its LRU position and priority), or null.
  // Counts nothing.
  Entry* FindLocked(const Key& key) SPECQP_REQUIRES(mu_);
  // The one insert step for built, derived and partitioned lists, taken
  // with the generation read when the lookup missed. First-wins: when the
  // key is resident, `*lists` becomes the resident's lists. Otherwise
  // `*lists` becomes the key's entry unless the insert is refused (see the
  // class comment); the caller is served `*lists` either way.
  void InsertLocked(const Key& key, uint64_t generation, Lists* lists)
      SPECQP_REQUIRES(mu_);
  // The key's plain list, built with the lock released on a miss.
  // `count` is false for the base list behind a piece set, so one
  // GetPartitions counts one hit or miss. Evicts nothing.
  std::shared_ptr<const PostingList> Fetch(const PatternKey& key, bool count);
  // True when one pass over p's base list plus the derivations undercuts
  // building each of `siblings` — distinct (?s <p> <o>) keys — on its own.
  bool DeriveIsCheaper(TermId p, std::span<const PatternKey> siblings);
  // Derives `siblings` from one pass over p's base list, inserts each
  // derived list and pins it in `pins`. `generation` is the one Resolve
  // read when the siblings missed.
  void DeriveSiblings(TermId p, std::span<const PatternKey> siblings,
                      uint64_t generation, Pins* pins,
                      ResolveCounts* counts);
  // Brings the cache within budget: refreshes every entry's bytes
  // (decoded-block memos grow outside the lock while operators iterate),
  // releases decoded blocks LRU-first, then evicts unpinned entries in
  // victim order.
  void EvictIfOver();

  const TripleStore* store_;
  const size_t budget_bytes_;
  const bool cost_aware_;

  mutable Mutex mu_;
  Map map_ SPECQP_GUARDED_BY(mu_);
  uint64_t clock_ SPECQP_GUARDED_BY(mu_) = 0;
  double inflation_ SPECQP_GUARDED_BY(mu_) = 0.0;  // cost-aware floor
  size_t bytes_ SPECQP_GUARDED_BY(mu_) = 0;
  uint64_t generation_ SPECQP_GUARDED_BY(mu_) = 0;  // Clear() count
  uint64_t hits_ SPECQP_GUARDED_BY(mu_) = 0;
  uint64_t misses_ SPECQP_GUARDED_BY(mu_) = 0;
  uint64_t evictions_ SPECQP_GUARDED_BY(mu_) = 0;
};

}  // namespace specqp

#endif  // SPECQP_RDF_POSTING_LIST_H_
