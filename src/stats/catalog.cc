#include "stats/catalog.h"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "util/logging.h"

namespace specqp {

TwoBucketHistogram PatternStats::Histogram() const {
  SPECQP_CHECK(!empty()) << "histogram of an empty pattern";
  return TwoBucketHistogram(sigma_r, s_r / s_m, /*upper=*/1.0);
}

StatisticsCatalog::StatisticsCatalog(const TripleStore* store,
                                     PostingListCache* postings,
                                     double head_fraction)
    : store_(store), postings_(postings), head_fraction_(head_fraction) {
  SPECQP_CHECK(store_ != nullptr && postings_ != nullptr);
  SPECQP_CHECK(head_fraction_ > 0.0 && head_fraction_ < 1.0);
}

PatternStats StatisticsCatalog::GetStats(const PatternKey& key) {
  uint64_t generation = 0;
  {
    MutexLock lock(mu_);
    const auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;
    generation = generation_;
  }
  PatternStats stats = Compute(key);
  ApplyCorrection(key, &stats);
  MutexLock lock(mu_);
  // Not memoised: a stopped computation on a sharded store may have read
  // a truncated list, and one that straddles a Clear() a retired one.
  if (store_->ReadsCutShort() || generation != generation_) {
    return stats;
  }
  return cache_.emplace(key, stats).first->second;
}

size_t StatisticsCatalog::size() const {
  MutexLock lock(mu_);
  return cache_.size();
}

void StatisticsCatalog::Clear() {
  MutexLock lock(mu_);
  cache_.clear();
  ++generation_;
}

size_t StatisticsCatalog::LoadCalibration(const std::string& path) {
  return LoadCalibrationTable(path, &corrections_);
}

double StatisticsCatalog::CorrectionFor(const PatternKey& key) const {
  if (corrections_.empty()) return 1.0;
  const auto it = corrections_.find(PatternSignature(*store_, key));
  return it == corrections_.end() ? 1.0 : it->second;
}

void StatisticsCatalog::ApplyCorrection(const PatternKey& key,
                                        PatternStats* stats) const {
  if (corrections_.empty() || stats->m == 0) return;
  const double correction = CorrectionFor(key);
  if (correction == 1.0) return;
  stats->m = std::max<uint64_t>(
      1, static_cast<uint64_t>(
             std::llround(static_cast<double>(stats->m) * correction)));
}

PatternStats StatisticsCatalog::Compute(const PatternKey& key) {
  const auto list = postings_->Get(key);
  PatternStats stats;
  stats.m = list->size();
  if (list->empty()) return stats;

  double total = 0.0;
  for (BlockIterator it(&*list); !it.AtEnd(); it.Advance()) {
    total += it.Entry().score;
  }
  stats.s_m = total;
  if (total <= 0.0) return stats;

  double acc = 0.0;
  double last_score = 0.0;
  for (BlockIterator it(&*list); !it.AtEnd(); it.Advance()) {
    last_score = it.Entry().score;
    acc += last_score;
    if (acc >= head_fraction_ * total) {
      stats.sigma_r = last_score;
      stats.s_r = acc;
      return stats;
    }
  }
  // Fell through only via floating-point slack; use the full list.
  stats.sigma_r = last_score;
  stats.s_r = acc;
  return stats;
}

std::vector<v3::StatsEntry> StatisticsCatalog::Snapshot() const {
  std::vector<v3::StatsEntry> rows;
  {
    MutexLock lock(mu_);
    rows.reserve(cache_.size());
    for (const auto& [key, stats] : cache_) {
      rows.push_back(v3::StatsEntry{key.s, key.p, key.o, /*reserved=*/0,
                                    stats.m, stats.sigma_r, stats.s_r,
                                    stats.s_m});
    }
  }
  std::sort(rows.begin(), rows.end(),
            [](const v3::StatsEntry& a, const v3::StatsEntry& b) {
              return std::tie(a.s, a.p, a.o) < std::tie(b.s, b.p, b.o);
            });
  return rows;
}

size_t StatisticsCatalog::Preload(std::span<const v3::StatsEntry> entries) {
  size_t inserted = 0;
  MutexLock lock(mu_);
  for (const v3::StatsEntry& row : entries) {
    PatternStats stats;
    stats.m = row.m;
    stats.sigma_r = row.sigma_r;
    stats.s_r = row.s_r;
    stats.s_m = row.s_m;
    const PatternKey key{row.s, row.p, row.o};
    // Corrections apply on the way in, so a catalog preloaded from a store
    // snapshot estimates like one that computed every entry itself.
    ApplyCorrection(key, &stats);
    inserted += cache_.emplace(key, stats).second ? 1 : 0;
  }
  return inserted;
}

}  // namespace specqp
