#include "rdf/shared_scan_cache.h"

#include <algorithm>
#include <tuple>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace specqp {

SharedScanCache::SharedScanCache(PostingListCache* base, bool derive)
    : base_(base), derive_(derive) {
  SPECQP_CHECK(base_ != nullptr);
}

void SharedScanCache::Prepare(std::span<const PatternKey> keys) {
  // Resolve in (p, o, s) order, so builds and evictions run in one
  // deterministic order whatever order the batch listed its keys in.
  std::vector<PatternKey> sorted(keys.begin(), keys.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const PatternKey& a, const PatternKey& b) {
              return std::tie(a.p, a.o, a.s) < std::tie(b.p, b.o, b.s);
            });
  // Held across the builds: Prepare runs before the batch's execution
  // tasks, so no Get() waits on it.
  MutexLock lock(mu_);
  const size_t before = map_.size();
  PostingListCache::ResolveCounts resolved;
  base_->Resolve(sorted, &map_, &resolved, derive_);
  counters_.resolved_lists += map_.size() - before;
  counters_.derived_lists += resolved.derived_lists;
  counters_.base_scans += resolved.base_scans;
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

}  // namespace specqp
