#include "rdf/shared_scan_cache.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <tuple>
#include <utility>

#include "rdf/store_format.h"
#include "util/logging.h"

namespace specqp {

namespace {

// Estimated cost of building a posting list of `n` entries from scratch
// (index probe + copy + comparison sort), in entry-visit units. Matches the
// cost model of PostingListCache's cost-aware eviction.
double BuildCost(size_t n) {
  return n == 0 ? 1.0
               : static_cast<double>(n) *
                     (std::log2(static_cast<double>(n) + 1.0) + 1.0);
}

// Staged bucket -> final posting list: `entries` holds {triple_index, RAW
// score}; normalise and sort exactly like BuildPostingList so the result
// is bit-identical to a direct build.
void FinalizeRawBucket(PostingList* list) {
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

SharedScanCache::SharedScanCache(const TripleStore* store,
                                 PostingListCache* base)
    : store_(store), base_(base) {
  SPECQP_CHECK(store_ != nullptr && base_ != nullptr);
}

PostingList SharedScanCache::DeriveObjectList(const TripleStore& store,
                                              const PostingList& base,
                                              TermId object) {
  PostingList list;
  for (BlockIterator it(&base); !it.AtEnd(); it.Advance()) {
    const PostingEntry& e = it.Entry();
    const Triple& t = store.triple(e.triple_index);
    if (t.o != object) continue;
    list.entries.push_back(PostingEntry{e.triple_index, t.score});  // raw
  }
  FinalizeRawBucket(&list);
  return list;
}

std::shared_ptr<const PostingList> SharedScanCache::ResolveOne(
    const PatternKey& key) {
  auto list = base_->Get(key);
  MutexLock lock(mu_);
  if (map_.emplace(key, list).second) ++counters_.resolved_lists;
  return list;
}

void SharedScanCache::DeriveGroup(TermId p,
                                  const std::vector<TermId>& objects) {
  const PatternKey base_key{kInvalidTermId, p, kInvalidTermId};
  const auto base = base_->Get(base_key);
  {
    // counters_ is guarded: even though Prepare runs single-threaded, a
    // concurrent Get() may be copying the counters snapshot.
    MutexLock lock(mu_);
    ++counters_.base_scans;
  }

  // One pass over the predicate's base list, routing each entry (with its
  // exact RAW triple score) to its object's bucket.
  std::unordered_map<TermId, size_t> bucket_of;
  std::vector<PostingList> buckets(objects.size());
  bucket_of.reserve(objects.size());
  for (size_t i = 0; i < objects.size(); ++i) bucket_of.emplace(objects[i], i);
  for (BlockIterator iter(&*base); !iter.AtEnd(); iter.Advance()) {
    const PostingEntry& e = iter.Entry();
    const Triple& t = store_->triple(e.triple_index);
    const auto it = bucket_of.find(t.o);
    if (it == bucket_of.end()) continue;
    buckets[it->second].entries.push_back(
        PostingEntry{e.triple_index, t.score});
  }

  for (size_t i = 0; i < objects.size(); ++i) {
    FinalizeRawBucket(&buckets[i]);
    auto list = std::make_shared<const PostingList>(std::move(buckets[i]));
    const PatternKey key{kInvalidTermId, p, objects[i]};
    // Publish into the base cache so post-batch queries (and the batch's
    // statistics pass) reuse the derived list instead of rebuilding it.
    // Put returns the list actually resident (an earlier insert wins a
    // race); memoise that one so every layer pins the same object.
    auto resident = base_->Put(key, std::move(list));
    MutexLock lock(mu_);
    if (map_.emplace(key, std::move(resident)).second) {
      ++counters_.resolved_lists;
      ++counters_.derived_lists;
    }
  }
}

void SharedScanCache::Prepare(std::span<const PatternKey> keys) {
  // Deduplicate against both the request span and the already-resolved map.
  std::vector<PatternKey> todo;
  todo.reserve(keys.size());
  {
    MutexLock lock(mu_);
    for (const PatternKey& key : keys) {
      if (map_.find(key) == map_.end()) todo.push_back(key);
    }
  }
  std::sort(todo.begin(), todo.end(),
            [](const PatternKey& a, const PatternKey& b) {
              return std::tie(a.p, a.o, a.s) < std::tie(b.p, b.o, b.s);
            });
  todo.erase(std::unique(todo.begin(), todo.end()), todo.end());

  // Group the (?s <p> <o>) keys by predicate; everything else resolves
  // directly through the base cache.
  std::map<TermId, std::vector<TermId>> by_predicate;
  std::vector<PatternKey> direct;
  for (const PatternKey& key : todo) {
    if (!key.s_bound() && key.p_bound() && key.o_bound()) {
      by_predicate[key.p].push_back(key.o);
    } else {
      direct.push_back(key);
    }
  }

  for (auto& [p, objects] : by_predicate) {
    const PatternKey base_key{kInvalidTermId, p, kInvalidTermId};
    bool derive = objects.size() >= 2;
    if (derive) {
      // Derive only when one pass over the base list undercuts per-key
      // builds. The base list is free when it is already resident (or the
      // store maps a zero-copy per-predicate directory); otherwise its own
      // build cost is charged to the derivation side.
      double direct_cost = 0.0;
      for (TermId o : objects) {
        direct_cost +=
            BuildCost(store_->CountMatches(PatternKey{kInvalidTermId, p, o}));
      }
      const size_t base_count = store_->CountMatches(base_key);
      const MappedBlockPostings* mapped = store_->mapped_block_postings();
      const bool base_free =
          (mapped != nullptr && mapped->Find(p) != nullptr) ||
          base_->Peek(base_key) != nullptr;
      double derive_cost = static_cast<double>(base_count);
      for (TermId o : objects) {
        derive_cost += static_cast<double>(
            store_->CountMatches(PatternKey{kInvalidTermId, p, o}));
      }
      if (!base_free) derive_cost += BuildCost(base_count);
      derive = derive_cost < direct_cost;
    }
    if (derive) {
      DeriveGroup(p, objects);
    } else {
      for (TermId o : objects) ResolveOne(PatternKey{kInvalidTermId, p, o});
    }
  }
  for (const PatternKey& key : direct) ResolveOne(key);
}

std::shared_ptr<const PostingList> SharedScanCache::Get(
    const PatternKey& key) {
  {
    MutexLock lock(mu_);
    const auto it = map_.find(key);
    if (it != map_.end()) {
      ++counters_.hits;
      return it->second;
    }
    ++counters_.misses;
  }
  // Unprepared key (e.g. a pattern shape the prepare pass did not
  // anticipate): fall through to the base cache — outside our lock, the
  // build may be slow — then memoise. The first resolver wins so every
  // caller sees one stable list.
  auto list = base_->Get(key);
  MutexLock lock(mu_);
  return map_.emplace(key, std::move(list)).first->second;
}

SharedScanCache::Counters SharedScanCache::counters() const {
  MutexLock lock(mu_);
  return counters_;
}

size_t SharedScanCache::size() const {
  MutexLock lock(mu_);
  return map_.size();
}

}  // namespace specqp
