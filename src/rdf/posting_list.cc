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

size_t PostingListCache::BytesOf(const Lists& lists) {
  size_t bytes = 0;
  for (const auto& list : lists) bytes += ApproxBytes(*list);
  return bytes;
}

double PostingListCache::RebuildCostOf(const Lists& lists) {
  size_t entries = 0;
  for (const auto& list : lists) entries += list->size();
  return RebuildCost(entries);
}

size_t PostingListCache::KeyHash::operator()(const Key& key) const {
  size_t h = PatternKeyHash{}(key.pattern);
  h ^= (static_cast<size_t>(key.slot + 1) << 32) + key.num_partitions +
       0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return h;
}

PostingListCache::Entry* PostingListCache::FindLocked(const Key& key) {
  const auto it = map_.find(key);
  if (it == map_.end()) return nullptr;
  Entry& entry = it->second;
  entry.last_used = ++clock_;
  if (cost_aware_) entry.priority = inflation_ + RebuildCostOf(entry.lists);
  return &entry;
}

void PostingListCache::InsertLocked(const Key& key, uint64_t generation,
                                    Lists* lists) {
  // A call that missed the same key may have inserted it meanwhile; its
  // entry wins, so every holder pins one object.
  if (const Entry* resident = FindLocked(key)) {
    *lists = resident->lists;
    return;
  }
  // Three reasons a fresh entry must NOT enter the cache:
  //  - Clear() ran since the lookup missed: the store it read may have
  //    lost a shard since, so the lists may describe a retired shard set;
  //  - the query driving this build was stopped (cancel / deadline /
  //    fault) on a sharded store: its Match returns early with a
  //    truncated index set, so the lists (or the base list they were cut
  //    from) may be incomplete — caching them would poison later queries
  //    long after the cancellation. Other stores never cut a read short,
  //    so their lists are complete and a retry finds them warm;
  //  - an injected "cache.alloc" fault simulates allocation pressure on
  //    the insert path (the lists are still served to this caller).
  if (generation != generation_ || store_->ReadsCutShort() ||
      FaultShouldFail("cache.alloc")) {
    return;
  }
  Entry entry;
  entry.lists = *lists;
  entry.bytes = BytesOf(entry.lists);
  entry.last_used = ++clock_;
  if (cost_aware_) entry.priority = inflation_ + RebuildCostOf(entry.lists);
  bytes_ += entry.bytes;
  map_.emplace(key, std::move(entry));
}

std::shared_ptr<const PostingList> PostingListCache::Fetch(
    const PatternKey& key, bool count) {
  const Key plain{key};
  uint64_t generation = 0;
  {
    MutexLock lock(mu_);
    if (const Entry* resident = FindLocked(plain)) {
      if (count) ++hits_;
      return resident->lists.front();
    }
    if (count) ++misses_;
    generation = generation_;
  }
  Lists lists{std::make_shared<const PostingList>(
      BuildPostingList(*store_, key))};
  MutexLock lock(mu_);
  InsertLocked(plain, generation, &lists);
  return lists.front();
}

void PostingListCache::EvictIfOver() {
  if (budget_bytes_ == 0) return;
  MutexLock lock(mu_);
  // Decoded-block memos grow outside the lock while operators iterate, so
  // the accounting is refreshed before any budget decision.
  for (auto& [key, entry] : map_) {
    const size_t now = BytesOf(entry.lists);
    bytes_ = bytes_ - entry.bytes + now;
    entry.bytes = now;
  }
  if (bytes_ <= budget_bytes_) return;

  // Block-granular pass first: releasing a decoded-block memo frees real
  // bytes without evicting the (cheap) header view, and is safe even for
  // pinned lists — live iterators hold their current block via
  // shared_ptr, later touches simply decode again. LRU order so hot lists
  // keep their working set longest.
  std::vector<Entry*> decoded;
  for (auto& [key, entry] : map_) {
    if (std::any_of(entry.lists.begin(), entry.lists.end(),
                    [](const auto& list) {
                      return list->blocked() &&
                             list->blocks->decoded_bytes() > 0;
                    })) {
      decoded.push_back(&entry);
    }
  }
  std::sort(decoded.begin(), decoded.end(),
            [](const Entry* a, const Entry* b) {
              return a->last_used < b->last_used;
            });
  for (Entry* entry : decoded) {
    if (bytes_ <= budget_bytes_) return;
    size_t released = 0;
    for (const auto& list : entry->lists) {
      if (list->blocked()) released += list->blocks->ReleaseDecodedBlocks();
    }
    if (released == 0) continue;
    bytes_ -= std::min(bytes_, released);
    entry->bytes -= std::min(entry->bytes, released);
    ++evictions_;
  }
  if (bytes_ <= budget_bytes_) return;

  // Whole entries next, never pinned ones (use_count > 1 means a live
  // operator tree, a batch or the caller of this very call still reads
  // it; evicting would not free the memory anyway). Victim order:
  // cost-aware compares GreedyDual priorities (rebuild cost on top of the
  // inflation floor), plain LRU compares last use, which no two entries
  // share.
  std::vector<Map::iterator> victims;
  for (auto it = map_.begin(); it != map_.end(); ++it) {
    const Lists& lists = it->second.lists;
    if (std::none_of(lists.begin(), lists.end(), [](const auto& list) {
          return list.use_count() > 1;
        })) {
      victims.push_back(it);
    }
  }
  std::sort(victims.begin(), victims.end(), [this](auto a, auto b) {
    if (cost_aware_ && a->second.priority != b->second.priority) {
      return a->second.priority < b->second.priority;
    }
    return a->second.last_used < b->second.last_used;
  });
  for (const auto it : victims) {
    if (bytes_ <= budget_bytes_) return;
    if (cost_aware_) inflation_ = std::max(inflation_, it->second.priority);
    bytes_ -= it->second.bytes;
    map_.erase(it);
    ++evictions_;
  }
}

std::shared_ptr<const PostingList> PostingListCache::Get(
    const PatternKey& key) {
  auto list = Fetch(key, /*count=*/true);
  EvictIfOver();
  return list;
}

std::shared_ptr<const PostingList> PostingListCache::Peek(
    const PatternKey& key) {
  MutexLock lock(mu_);
  const auto it = map_.find(Key{key});
  return it == map_.end() ? nullptr : it->second.lists.front();
}

void PostingListCache::Resolve(std::span<const PatternKey> keys, Pins* pins,
                               ResolveCounts* counts, bool derive) {
  // Pin the residents first; sort what is missing into object-bound
  // sibling groups (by predicate) and everything else.
  std::map<TermId, std::vector<PatternKey>> siblings;
  std::vector<PatternKey> build;
  uint64_t generation = 0;
  {
    MutexLock lock(mu_);
    generation = generation_;
    for (const PatternKey& key : keys) {
      const auto [pin, fresh] = pins->try_emplace(key);
      if (!fresh) continue;  // repeated, or pinned by an earlier call
      if (const Entry* resident = FindLocked(Key{key})) {
        ++hits_;
        pin->second = resident->lists.front();
      } else if (!key.s_bound() && key.p_bound() && key.o_bound()) {
        siblings[key.p].push_back(key);
      } else {
        build.push_back(key);
      }
    }
  }
  for (const auto& [p, group] : siblings) {
    if (derive && DeriveIsCheaper(p, group)) {
      DeriveSiblings(p, group, generation, pins, counts);
    } else {
      for (const PatternKey& key : group) (*pins)[key] = Fetch(key, true);
    }
  }
  for (const PatternKey& key : build) (*pins)[key] = Fetch(key, true);
  EvictIfOver();
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
    MutexLock lock(mu_);
    base_free = map_.contains(Key{base_key});
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
                                      uint64_t generation, Pins* pins,
                                      ResolveCounts* counts) {
  const auto base = Fetch(PatternKey{kInvalidTermId, p, kInvalidTermId},
                          /*count=*/true);
  std::vector<TermId> objects;
  objects.reserve(siblings.size());
  for (const PatternKey& key : siblings) objects.push_back(key.o);
  std::vector<Lists> derived;
  derived.reserve(siblings.size());
  for (PostingList& list : DeriveObjectLists(*store_, *base, objects)) {
    derived.push_back(Lists{std::make_shared<const PostingList>(
        std::move(list))});
  }
  MutexLock lock(mu_);
  for (size_t i = 0; i < siblings.size(); ++i) {
    InsertLocked(Key{siblings[i]}, generation, &derived[i]);
    (*pins)[siblings[i]] = derived[i].front();
  }
  if (counts != nullptr) {
    counts->derived_lists += siblings.size();
    ++counts->base_scans;
  }
}

std::vector<std::shared_ptr<const PostingList>>
PostingListCache::GetPartitions(const PatternKey& key, int slot,
                                uint32_t num_partitions) {
  const Key parts{key, slot, num_partitions};
  uint64_t generation = 0;
  Lists pieces;
  {
    MutexLock lock(mu_);
    if (const Entry* resident = FindLocked(parts)) {
      ++hits_;
      pieces = resident->lists;
    } else {
      ++misses_;
      generation = generation_;
    }
  }
  if (pieces.empty()) {  // a miss
    const auto base = Fetch(key, /*count=*/false);
    pieces = PartitionPostingList(*store_, *base, slot, num_partitions);
    MutexLock lock(mu_);
    InsertLocked(parts, generation, &pieces);
  }
  EvictIfOver();
  return pieces;
}

void PostingListCache::Clear() {
  Map dropped;
  {
    MutexLock lock(mu_);
    dropped.swap(map_);
    clock_ = 0;
    inflation_ = 0.0;
    bytes_ = 0;
    ++generation_;
    hits_ = 0;
    misses_ = 0;
    evictions_ = 0;
  }
  // `dropped` frees the unpinned lists here, outside the lock.
}

uint64_t PostingListCache::hits() const {
  MutexLock lock(mu_);
  return hits_;
}

uint64_t PostingListCache::misses() const {
  MutexLock lock(mu_);
  return misses_;
}

uint64_t PostingListCache::evictions() const {
  MutexLock lock(mu_);
  return evictions_;
}

size_t PostingListCache::size() const {
  MutexLock lock(mu_);
  return static_cast<size_t>(
      std::count_if(map_.begin(), map_.end(), [](const auto& kv) {
        return kv.first.num_partitions == 0;
      }));
}

size_t PostingListCache::bytes() const {
  MutexLock lock(mu_);
  return bytes_;
}

}  // namespace specqp
