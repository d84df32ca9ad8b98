#include "rdf/posting_list.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "rdf/posting_partition.h"
#include "rdf/store_format.h"
#include "util/fault_injector.h"
#include "util/logging.h"

namespace specqp {

namespace {

// `list->entries` holds {triple_index, RAW score}: normalise by the largest
// raw score (Definition 5) and sort by (score desc, triple index asc).
void NormaliseAndSort(PostingList* list) {
  double max_raw = 0.0;
  for (const PostingEntry& e : list->entries) {
    max_raw = std::max(max_raw, e.score);
  }
  list->max_raw_score = max_raw;
  for (PostingEntry& e : list->entries) {
    e.score = max_raw > 0.0 ? e.score / max_raw : 0.0;
  }
  std::sort(list->entries.begin(), list->entries.end(),
            [](const PostingEntry& a, const PostingEntry& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.triple_index < b.triple_index;
            });
}

}  // namespace

const v3::BlockPostingDirEntry* MappedBlockPostings::Find(
    TermId predicate) const {
  auto it = std::lower_bound(directory.begin(), directory.end(), predicate,
                             [](const v3::BlockPostingDirEntry& e, TermId p) {
                               return e.predicate < p;
                             });
  if (it == directory.end() || it->predicate != predicate) return nullptr;
  return &*it;
}

PostingList PostingList::BlockView(std::span<const PostingBlockHeader> headers,
                                   std::span<const uint8_t> payload,
                                   uint64_t entry_count, double max_raw_score,
                                   uint32_t id_limit) {
  PostingList list;
  list.blocks = std::make_unique<PostingBlockSource>(headers, payload,
                                                     entry_count, id_limit);
  list.max_raw_score = max_raw_score;
  return list;
}

PostingList PostingList::FromBlocks(std::vector<PostingBlockHeader> headers,
                                    std::vector<uint8_t> payload,
                                    uint64_t entry_count, double max_raw_score,
                                    uint32_t id_limit) {
  PostingList list;
  list.blocks = std::make_unique<PostingBlockSource>(
      std::move(headers), std::move(payload), entry_count, id_limit);
  list.max_raw_score = max_raw_score;
  return list;
}

BlockIterator::BlockIterator(const PostingList* list, uint64_t* decoded_counter,
                             uint64_t* skipped_counter)
    : decoded_counter_(decoded_counter), skipped_counter_(skipped_counter) {
  SPECQP_CHECK(list != nullptr);
  if (list->blocked()) {
    source_ = list->blocks.get();
    size_ = static_cast<size_t>(source_->entry_count());
    faults_at_start_ = source_->fault_count();
  } else {
    flat_ = list->entries;
    size_ = flat_.size();
  }
}

BlockIterator::~BlockIterator() {
  // Blocks the iterator never needed — the tail PullTopK left untouched
  // once it had its k answers — are charged as skipped here. SkipAll()
  // advances accounted_until_, so an explicitly discarded iterator does
  // not double-charge.
  if (source_ != nullptr && skipped_counter_ != nullptr) {
    *skipped_counter_ += source_->num_blocks() - accounted_until_;
  }
}

bool BlockIterator::faulted() const {
  return source_ != nullptr && source_->fault_count() > faults_at_start_;
}

void BlockIterator::Materialize(size_t b) {
  if (cur_block_ == b && cur_ != nullptr) return;
  cur_ = source_->Decode(b);
  cur_block_ = b;
  // Positions advance one entry at a time, so no block is passed over on
  // the way here; only SkipAll() and the destructor charge skips.
  SPECQP_DCHECK(b <= accounted_until_);
  accounted_until_ = std::max(accounted_until_, b + 1);
  if (decoded_counter_ != nullptr) ++*decoded_counter_;
}

double BlockIterator::PeekScore() const {
  SPECQP_DCHECK(!AtEnd());
  if (source_ == nullptr) return flat_[pos_].score;
  const size_t b = pos_ / kPostingBlockEntries;
  if (cur_block_ == b && cur_ != nullptr) {
    return cur_->entries[pos_ % kPostingBlockEntries].score;
  }
  // Advance() keeps mid-block positions materialised, so an undecoded
  // position sits on a boundary, where the header's ceiling IS the
  // current entry's score (bit-equal by format validation).
  SPECQP_DCHECK(pos_ % kPostingBlockEntries == 0);
  return source_->header(b).max_score;
}

const PostingEntry& BlockIterator::Entry() {
  SPECQP_DCHECK(!AtEnd());
  if (source_ == nullptr) return flat_[pos_];
  Materialize(pos_ / kPostingBlockEntries);
  return cur_->entries[pos_ % kPostingBlockEntries];
}

void BlockIterator::Advance() {
  SPECQP_DCHECK(!AtEnd());
  ++pos_;
  if (source_ == nullptr || AtEnd()) return;
  // Invariant: a mid-block position has its block materialised, so
  // PeekScore() stays exact and const. Landing on a boundary defers the
  // decode — PeekScore() answers from the header there, and a scan that
  // stops before reading the entry leaves the block undecoded (skipped).
  if (pos_ % kPostingBlockEntries != 0) {
    Materialize(pos_ / kPostingBlockEntries);
  }
}

void BlockIterator::SkipAll() {
  if (source_ != nullptr) {
    if (skipped_counter_ != nullptr) {
      *skipped_counter_ += source_->num_blocks() - accounted_until_;
    }
    accounted_until_ = source_->num_blocks();
  }
  pos_ = size_;
  cur_.reset();
}

PostingList BuildPostingList(const TripleStore& store, const PatternKey& key) {
  // Mapped-store fast path: pure predicate patterns come straight from the
  // file's block directory, zero-copy and pre-sorted — nothing is decoded
  // until an iterator asks.
  if (const MappedBlockPostings* blocked = store.mapped_block_postings();
      blocked != nullptr && !key.s_bound() && key.p_bound() && !key.o_bound()) {
    if (const v3::BlockPostingDirEntry* dir = blocked->Find(key.p)) {
      return PostingList::BlockView(
          blocked->headers.subspan(dir->block_begin, dir->block_count),
          blocked->payload, dir->entry_count, dir->max_raw_score,
          static_cast<uint32_t>(store.size()));
    }
  }

  PostingList list;
  const auto indices = store.MatchIndices(key);
  list.entries.reserve(indices.size());
  for (uint32_t idx : indices) {
    list.entries.push_back(PostingEntry{idx, store.triple(idx).score});
  }
  NormaliseAndSort(&list);
  // On a file-backed store (a mapped view or a bundle facade), scan-built
  // bound lists are re-encoded into blocks as well: the cache then holds
  // the compact payload and decodes on demand, and the
  // blocks_decoded/blocks_skipped accounting covers every list the store
  // serves, not just the pure-predicate directory views. A bundle facade
  // has no mapped directory of its own, but its lists stay block-shaped so
  // the accounting behaves identically across backends. The codec is
  // lossless, so iterators observe entries bit-identical to the flat
  // build.
  if ((store.is_view() || store.is_sharded()) && !list.entries.empty()) {
    EncodedPostingBlocks encoded =
        EncodePostingBlocks(list.entries.data(), list.entries.size());
    const size_t count = list.entries.size();
    return PostingList::FromBlocks(std::move(encoded.headers),
                                   std::move(encoded.payload), count,
                                   list.max_raw_score,
                                   static_cast<uint32_t>(store.size()));
  }
  return list;
}

std::vector<PostingList> DeriveObjectLists(const TripleStore& store,
                                           const PostingList& base,
                                           std::span<const TermId> objects) {
  std::unordered_map<TermId, size_t> bucket_of;
  bucket_of.reserve(objects.size());
  for (size_t i = 0; i < objects.size(); ++i) bucket_of.emplace(objects[i], i);
  // One pass over the base list, routing each entry (with its exact RAW
  // triple score) to its object's bucket.
  std::vector<PostingList> lists(objects.size());
  for (BlockIterator iter(&base); !iter.AtEnd(); iter.Advance()) {
    const PostingEntry& e = iter.Entry();
    const Triple& t = store.triple(e.triple_index);
    const auto it = bucket_of.find(t.o);
    if (it == bucket_of.end()) continue;
    lists[it->second].entries.push_back(PostingEntry{e.triple_index, t.score});
  }
  for (PostingList& list : lists) NormaliseAndSort(&list);
  return lists;
}

size_t PostingListCache::ApproxBytes(const PostingList& list) {
  size_t bytes =
      sizeof(PostingList) + list.entries.capacity() * sizeof(PostingEntry);
  if (list.blocks != nullptr) {
    // A blocked list's footprint is dominated by whatever its iterators
    // have decoded so far (mapped headers/payload are not heap bytes);
    // owned_bytes covers the in-memory FromBlocks variant.
    bytes += sizeof(PostingBlockSource) + list.blocks->owned_bytes() +
             list.blocks->decoded_bytes();
  }
  return bytes;
}

double PostingListCache::RebuildCost(size_t num_entries) {
  if (num_entries == 0) return 1.0;
  const double n = static_cast<double>(num_entries);
  return n * (std::log2(n + 1.0) + 1.0);
}

PostingListCache::Shard& PostingListCache::ShardFor(const PatternKey& key) {
  return shards_[PatternKeyHash{}(key) % kNumShards];
}

void PostingListCache::SyncBlockBytes(Shard& shard) {
  for (auto& [key, entry] : shard.map) {
    if (!entry.list->blocked()) continue;
    const size_t now = ApproxBytes(*entry.list);
    if (now == entry.bytes) continue;
    shard.bytes += now;
    shard.bytes -= entry.bytes;
    entry.bytes = now;
  }
}

void PostingListCache::EvictIfOver(Shard& shard, const PatternKey& keep,
                                   const PartitionKey* keep_parts) {
  if (budget_bytes_ == 0) return;
  // Decoded-block memos grow outside the shard lock while operators
  // iterate, so the accounting is refreshed before any budget decision.
  SyncBlockBytes(shard);
  const size_t shard_budget = budget_bytes_ / kNumShards;

  // Block-granular pass first: releasing a decoded-block memo frees real
  // bytes without evicting the (cheap) header view, and is safe even for
  // pinned or just-requested lists — live iterators hold their current
  // block via shared_ptr, later touches simply decode again. LRU order so
  // hot lists keep their working set longest.
  if (shard.bytes > shard_budget) {
    std::vector<Entry*> blocked;
    for (auto& [key, entry] : shard.map) {
      if (entry.list->blocked() && entry.list->blocks->decoded_bytes() > 0) {
        blocked.push_back(&entry);
      }
    }
    std::sort(blocked.begin(), blocked.end(), [](const Entry* a,
                                                 const Entry* b) {
      return a->last_used < b->last_used;
    });
    for (Entry* entry : blocked) {
      if (shard.bytes <= shard_budget) break;
      const size_t released = entry->list->blocks->ReleaseDecodedBlocks();
      if (released == 0) continue;
      shard.bytes -= std::min(shard.bytes, released);
      entry->bytes -= std::min(entry->bytes, released);
      ++shard.evictions;
    }
  }
  // Victim ordering: cost-aware compares GreedyDual priorities (rebuild
  // cost on top of the shard's inflation floor), plain LRU compares last
  // use; ties break towards the older entry either way so eviction stays
  // deterministic.
  const auto before = [this](uint64_t last_a, double prio_a, uint64_t last_b,
                             double prio_b) {
    if (cost_aware_ && prio_a != prio_b) return prio_a < prio_b;
    return last_a < last_b;
  };
  while (shard.bytes > shard_budget) {
    // Scan evictable lists and partition-piece sets: never the
    // just-requested one, and never pinned entries (use_count > 1 means a
    // live operator tree still reads it; evicting would not free the
    // memory anyway).
    auto list_victim = shard.map.end();
    for (auto it = shard.map.begin(); it != shard.map.end(); ++it) {
      if (it->first == keep) continue;
      if (it->second.list.use_count() > 1) continue;
      if (list_victim == shard.map.end() ||
          before(it->second.last_used, it->second.priority,
                 list_victim->second.last_used,
                 list_victim->second.priority)) {
        list_victim = it;
      }
    }
    auto parts_victim = shard.partitions.end();
    for (auto it = shard.partitions.begin(); it != shard.partitions.end();
         ++it) {
      if (keep_parts != nullptr && it->first == *keep_parts) continue;
      bool pinned = false;
      for (const auto& piece : it->second.pieces) {
        if (piece.use_count() > 1) {
          pinned = true;
          break;
        }
      }
      if (pinned) continue;
      if (parts_victim == shard.partitions.end() ||
          before(it->second.last_used, it->second.priority,
                 parts_victim->second.last_used,
                 parts_victim->second.priority)) {
        parts_victim = it;
      }
    }

    const bool have_list = list_victim != shard.map.end();
    const bool have_parts = parts_victim != shard.partitions.end();
    if (!have_list && !have_parts) return;  // everything pinned or kept
    // Prefer the list victim unless the partition victim strictly precedes
    // it (matching the old "<=" tie preference).
    if (have_list &&
        (!have_parts || !before(parts_victim->second.last_used,
                                parts_victim->second.priority,
                                list_victim->second.last_used,
                                list_victim->second.priority))) {
      if (cost_aware_) {
        shard.inflation = std::max(shard.inflation,
                                   list_victim->second.priority);
      }
      shard.bytes -= list_victim->second.bytes;
      shard.map.erase(list_victim);
    } else {
      if (cost_aware_) {
        shard.inflation = std::max(shard.inflation,
                                   parts_victim->second.priority);
      }
      shard.bytes -= parts_victim->second.bytes;
      shard.partitions.erase(parts_victim);
    }
    ++shard.evictions;
  }
}

std::shared_ptr<const PostingList> PostingListCache::FindLocked(
    Shard& shard, const PatternKey& key) {
  auto it = shard.map.find(key);
  if (it == shard.map.end()) return nullptr;
  it->second.last_used = ++shard.clock;
  if (cost_aware_) {
    it->second.priority =
        shard.inflation + RebuildCost(it->second.list->size());
  }
  return it->second.list;
}

std::shared_ptr<const PostingList> PostingListCache::GetLocked(
    Shard& shard, const PatternKey& key, bool count_stats) {
  if (auto resident = FindLocked(shard, key)) {
    if (count_stats) ++shard.hits;
    return resident;
  }
  if (count_stats) ++shard.misses;
  // Built under the shard lock: a concurrent request for the same key
  // waits and then hits; requests for other shards are unaffected.
  return InsertLocked(shard, key, std::make_shared<const PostingList>(
                                      BuildPostingList(*store_, key)));
}

std::shared_ptr<const PostingList> PostingListCache::InsertLocked(
    Shard& shard, const PatternKey& key,
    std::shared_ptr<const PostingList> list) {
  // Two reasons a fresh list must NOT enter the cache:
  //  - the query driving this build was stopped (cancel / deadline /
  //    fault) on a sharded store: its Match returns early with a
  //    truncated index set, so the list (or a base list it was derived
  //    from) may be incomplete — caching it would poison later queries
  //    long after the cancellation. Other stores never cut a read short,
  //    so their lists are complete and a retry finds them warm;
  //  - an injected "cache.alloc" fault simulates allocation pressure on
  //    the insert path (the list is still served to this caller).
  if (store_->ReadsCutShort() || FaultShouldFail("cache.alloc")) {
    return list;
  }
  Entry entry;
  entry.list = list;
  entry.bytes = ApproxBytes(*list);
  entry.last_used = ++shard.clock;
  if (cost_aware_) entry.priority = shard.inflation + RebuildCost(list->size());
  shard.bytes += entry.bytes;
  shard.map.emplace(key, std::move(entry));
  return list;
}

std::shared_ptr<const PostingList> PostingListCache::Get(
    const PatternKey& key) {
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  auto list = GetLocked(shard, key, /*count_stats=*/true);
  EvictIfOver(shard, key);
  return list;
}

std::shared_ptr<const PostingList> PostingListCache::GetUncounted(
    const PatternKey& key) {
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  auto list = GetLocked(shard, key, /*count_stats=*/false);
  EvictIfOver(shard, key);
  return list;
}

std::shared_ptr<const PostingList> PostingListCache::Peek(
    const PatternKey& key) {
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  const auto it = shard.map.find(key);
  return it == shard.map.end() ? nullptr : it->second.list;
}

void PostingListCache::Resolve(std::span<const PatternKey> keys, Pins* pins,
                               ResolveCounts* counts, bool derive) {
  // Pin the residents first; sort what is missing into object-bound
  // sibling groups (by predicate) and everything else.
  std::map<TermId, std::vector<PatternKey>> siblings;
  std::vector<PatternKey> build;
  for (const PatternKey& key : keys) {
    const auto [pin, fresh] = pins->try_emplace(key);
    if (!fresh) continue;  // repeated, or pinned by an earlier call
    Shard& shard = ShardFor(key);
    MutexLock lock(shard.mu);
    pin->second = FindLocked(shard, key);
    if (pin->second != nullptr) {
      ++shard.hits;
      EvictIfOver(shard, key);  // as a Get hit does
    } else if (!key.s_bound() && key.p_bound() && key.o_bound()) {
      siblings[key.p].push_back(key);
    } else {
      build.push_back(key);
    }
  }
  for (const auto& [p, group] : siblings) {
    if (derive && DeriveIsCheaper(p, group)) {
      DeriveSiblings(p, group, pins, counts);
    } else {
      for (const PatternKey& key : group) (*pins)[key] = Get(key);
    }
  }
  for (const PatternKey& key : build) (*pins)[key] = Get(key);
}

bool PostingListCache::DeriveIsCheaper(TermId p,
                                       std::span<const PatternKey> siblings) {
  if (siblings.size() < 2) return false;
  // The base list is free when it is resident or the store maps a
  // zero-copy per-predicate directory for it; otherwise its own build is
  // charged to the derivation side.
  const PatternKey base_key{kInvalidTermId, p, kInvalidTermId};
  const size_t base_count = store_->CountMatches(base_key);
  const MappedBlockPostings* mapped = store_->mapped_block_postings();
  bool base_free = mapped != nullptr && mapped->Find(p) != nullptr;
  if (!base_free) {
    Shard& shard = ShardFor(base_key);
    MutexLock lock(shard.mu);
    base_free = shard.map.contains(base_key);
  }
  double build_cost = 0.0;
  double derive_cost = static_cast<double>(base_count);
  for (const PatternKey& key : siblings) {
    const size_t n = store_->CountMatches(key);
    build_cost += RebuildCost(n);
    derive_cost += static_cast<double>(n);
  }
  if (!base_free) derive_cost += RebuildCost(base_count);
  return derive_cost < build_cost;
}

void PostingListCache::DeriveSiblings(TermId p,
                                      std::span<const PatternKey> siblings,
                                      Pins* pins, ResolveCounts* counts) {
  const auto base = Get(PatternKey{kInvalidTermId, p, kInvalidTermId});
  std::vector<TermId> objects;
  objects.reserve(siblings.size());
  for (const PatternKey& key : siblings) objects.push_back(key.o);
  std::vector<PostingList> derived = DeriveObjectLists(*store_, *base, objects);
  for (size_t i = 0; i < siblings.size(); ++i) {
    const PatternKey& key = siblings[i];
    Shard& shard = ShardFor(key);
    MutexLock lock(shard.mu);
    // A concurrent Get may have built the key since Resolve looked; the
    // resident then wins, so every holder pins one object.
    auto list = FindLocked(shard, key);
    if (list == nullptr) {
      list = InsertLocked(shard, key, std::make_shared<const PostingList>(
                                          std::move(derived[i])));
    }
    EvictIfOver(shard, key);
    (*pins)[key] = std::move(list);
  }
  if (counts != nullptr) {
    counts->derived_lists += siblings.size();
    ++counts->base_scans;
  }
}

std::vector<std::shared_ptr<const PostingList>>
PostingListCache::GetPartitions(const PatternKey& key, int slot,
                                uint32_t num_partitions) {
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  const PartitionKey part_key{key.s, key.p, key.o, slot, num_partitions};
  auto it = shard.partitions.find(part_key);
  if (it != shard.partitions.end()) {
    ++shard.hits;
    it->second.last_used = ++shard.clock;
    if (cost_aware_) {
      size_t total_entries = 0;
      for (const auto& piece : it->second.pieces) {
        total_entries += piece->size();
      }
      it->second.priority = shard.inflation + RebuildCost(total_entries);
    }
    return it->second.pieces;
  }
  ++shard.misses;
  auto base = GetLocked(shard, key, /*count_stats=*/false);
  PartitionEntry entry;
  entry.pieces = PartitionPostingList(*store_, *base, slot, num_partitions);
  size_t total_entries = 0;
  for (const auto& piece : entry.pieces) {
    entry.bytes += ApproxBytes(*piece);
    total_entries += piece->size();
  }
  entry.last_used = ++shard.clock;
  if (cost_aware_) {
    entry.priority = shard.inflation + RebuildCost(total_entries);
  }
  shard.bytes += entry.bytes;
  auto pieces = entry.pieces;
  shard.partitions.emplace(part_key, std::move(entry));
  EvictIfOver(shard, key, &part_key);
  return pieces;
}

void PostingListCache::Clear() {
  for (Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    shard.map.clear();
    shard.partitions.clear();
    shard.bytes = 0;
    shard.clock = 0;
    shard.inflation = 0.0;
    shard.hits = 0;
    shard.misses = 0;
    shard.evictions = 0;
  }
}

uint64_t PostingListCache::hits() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    total += shard.hits;
  }
  return total;
}

uint64_t PostingListCache::misses() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    total += shard.misses;
  }
  return total;
}

uint64_t PostingListCache::evictions() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    total += shard.evictions;
  }
  return total;
}

size_t PostingListCache::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    total += shard.map.size();
  }
  return total;
}

size_t PostingListCache::bytes() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    total += shard.bytes;
  }
  return total;
}

}  // namespace specqp
