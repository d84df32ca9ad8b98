#include "rdf/sharded_store.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

#include "rdf/store_io.h"
#include "util/crc32.h"
#include "util/fault_injector.h"
#include "util/stop_probe.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace specqp {

namespace fs = std::filesystem;

namespace {

// Everything read back from a shard file's fixed-size prefix (header +
// section table), by raw file reads — no mapping, no MmapStore. Both the
// manifest writer and the bundle reader derive their digests from this,
// so the two sides agree byte for byte on what is being pinned.
struct ShardTable {
  uint64_t file_size = 0;
  uint64_t triple_count = 0;
  uint64_t term_count = 0;
  uint32_t table_crc32c = 0;  // over bytes [0, table_end)
  uint32_t dict_crc32c = 0;   // over the 3 dictionary section CRCs
};

Result<ShardTable> ReadShardTable(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open shard file: " + path);

  v3::FileHeader header{};
  if (!in.read(reinterpret_cast<char*>(&header), sizeof(header))) {
    return Status::Corruption("shard file shorter than its header: " + path);
  }
  if (std::memcmp(header.magic, v3::kMagic, sizeof(header.magic)) != 0 ||
      header.version != v3::kFormatVersion) {
    return Status::Corruption("shard file is not a SQPSTOR3 store: " + path);
  }
  if (header.section_count == 0 || header.section_count > v3::kMaxSections) {
    return Status::Corruption("implausible shard section count: " + path);
  }

  const uint64_t table_end =
      sizeof(v3::FileHeader) +
      uint64_t{header.section_count} * sizeof(v3::SectionEntry);
  std::error_code ec;
  const uint64_t actual_size = fs::file_size(path, ec);
  if (ec) return Status::IoError("cannot stat shard file: " + path);
  if (table_end > actual_size) {
    return Status::Corruption("shard section table past end of file: " + path);
  }

  std::vector<char> table_bytes(table_end);
  in.seekg(0);
  if (!in.read(table_bytes.data(),
               static_cast<std::streamsize>(table_bytes.size()))) {
    return Status::Corruption("shard file truncated in section table: " +
                              path);
  }

  uint32_t dict_crcs[3] = {0, 0, 0};
  bool dict_seen[3] = {false, false, false};
  const auto* entries = reinterpret_cast<const v3::SectionEntry*>(
      table_bytes.data() + sizeof(v3::FileHeader));
  for (uint32_t i = 0; i < header.section_count; ++i) {
    switch (static_cast<v3::SectionId>(entries[i].id)) {
      case v3::SectionId::kDictOffsets:
        dict_crcs[0] = entries[i].crc32c;
        dict_seen[0] = true;
        break;
      case v3::SectionId::kDictBlob:
        dict_crcs[1] = entries[i].crc32c;
        dict_seen[1] = true;
        break;
      case v3::SectionId::kDictSorted:
        dict_crcs[2] = entries[i].crc32c;
        dict_seen[2] = true;
        break;
      default:
        break;
    }
  }
  if (!dict_seen[0] || !dict_seen[1] || !dict_seen[2]) {
    return Status::Corruption("shard file lacks dictionary sections: " + path);
  }

  ShardTable result;
  result.file_size = actual_size;
  result.triple_count = header.triple_count;
  result.term_count = header.term_count;
  result.table_crc32c = Crc32c(table_bytes.data(), table_bytes.size());
  result.dict_crc32c = Crc32c(dict_crcs, sizeof(dict_crcs));
  return result;
}

// The three permutation orders MatchIndices routes through, so the gather
// can merge per-shard subranges in exactly the order the single-file index
// would enumerate them.
enum class Route { kSpo, kPos, kOsp };

Route RouteOf(const PatternKey& key) {
  const bool sb = key.s_bound();
  const bool pb = key.p_bound();
  const bool ob = key.o_bound();
  if (sb) return (ob && !pb) ? Route::kOsp : Route::kSpo;
  if (pb) return Route::kPos;
  if (ob) return Route::kOsp;
  return Route::kSpo;
}

bool RouteBefore(const Triple& a, const Triple& b, Route route) {
  switch (route) {
    case Route::kSpo:
      return OrderSpo()(a, b);
    case Route::kPos:
      return OrderPos()(a, b);
    case Route::kOsp:
      return OrderOsp()(a, b);
  }
  return false;
}

uint64_t CountBundleShardFiles(const fs::path& dir) {
  uint64_t count = 0;
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.starts_with("shard_") && name.ends_with(".sqps")) ++count;
  }
  return count;
}

}  // namespace

std::string BundleShardFileName(uint32_t shard_id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "shard_%04u.sqps", shard_id);
  return buf;
}

bool IsBundlePath(const std::string& path) {
  std::error_code ec;
  if (fs::is_directory(path, ec)) {
    return fs::exists(fs::path(path) / bundle::kManifestFileName, ec);
  }
  if (!fs::is_regular_file(path, ec)) return false;
  std::ifstream in(path, std::ios::binary);
  char magic[8] = {};
  return in.read(magic, sizeof(magic)) &&
         std::memcmp(magic, bundle::kMagic, sizeof(magic)) == 0;
}

Status WriteBundleManifest(const std::string& dir, uint32_t shard_count,
                           bundle::HashScheme scheme) {
  if (shard_count == 0 || shard_count > bundle::kMaxShards) {
    return Status::InvalidArgument("bundle shard count out of range");
  }

  bundle::ManifestHeader header{};
  std::memcpy(header.magic, bundle::kMagic, sizeof(header.magic));
  header.version = bundle::kFormatVersion;
  header.shard_count = shard_count;
  header.hash_scheme = static_cast<uint32_t>(scheme);
  header.store_format = v3::kFormatVersion;

  std::vector<bundle::ManifestShardEntry> entries(shard_count);
  uint32_t dict_crc0 = 0;
  for (uint32_t i = 0; i < shard_count; ++i) {
    const std::string shard_path =
        (fs::path(dir) / BundleShardFileName(i)).string();
    SPECQP_ASSIGN_OR_RETURN(ShardTable table, ReadShardTable(shard_path));
    if (i == 0) {
      dict_crc0 = table.dict_crc32c;
      header.term_count = table.term_count;
    } else if (table.dict_crc32c != dict_crc0 ||
               table.term_count != header.term_count) {
      return Status::InvalidArgument(
          "shard dictionaries differ; every shard must carry the full "
          "dictionary in identical intern order: " +
          shard_path);
    }
    header.total_triples += table.triple_count;
    entries[i] = bundle::ManifestShardEntry{
        /*shard_id=*/i,          /*reserved=*/0,
        table.file_size,         table.triple_count,
        table.table_crc32c,      table.dict_crc32c};
  }

  std::vector<char> bytes(sizeof(header) +
                          entries.size() * sizeof(entries[0]) +
                          sizeof(uint32_t));
  std::memcpy(bytes.data(), &header, sizeof(header));
  std::memcpy(bytes.data() + sizeof(header), entries.data(),
              entries.size() * sizeof(entries[0]));
  const uint32_t crc =
      Crc32c(bytes.data(), bytes.size() - sizeof(uint32_t));
  std::memcpy(bytes.data() + bytes.size() - sizeof(uint32_t), &crc,
              sizeof(crc));

  const std::string manifest_path =
      (fs::path(dir) / bundle::kManifestFileName).string();
  std::ofstream out(manifest_path, std::ios::binary | std::ios::trunc);
  if (!out.write(bytes.data(), static_cast<std::streamsize>(bytes.size())) ||
      !out.flush()) {
    return Status::IoError("cannot write bundle manifest: " + manifest_path);
  }
  return Status::Ok();
}

Status WriteShardBundle(const TripleStore& store, const std::string& dir,
                        const ShardBundleOptions& options) {
  if (!store.finalized()) {
    return Status::FailedPrecondition(
        "WriteShardBundle requires a finalized store");
  }
  if (store.is_sharded()) {
    return Status::FailedPrecondition(
        "WriteShardBundle cannot re-shard a sharded facade; "
        "use tools/store_shard on the source data instead");
  }
  if (options.shard_count == 0 || options.shard_count > bundle::kMaxShards) {
    return Status::InvalidArgument("bundle shard count out of range");
  }

  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return Status::IoError("cannot create bundle directory: " + dir);

  // Partition the (already deduplicated, SPO-sorted) triples. Duplicates
  // of one (s,p,o) share the hashed term by construction, so per-shard
  // dedup in any later Finalize is identical to the global one.
  std::vector<std::vector<uint32_t>> partition(options.shard_count);
  const std::span<const Triple> triples = store.triples();
  for (uint32_t i = 0; i < triples.size(); ++i) {
    partition[BundleShardOfTriple(triples[i], options.scheme,
                                  options.shard_count)]
        .push_back(i);
  }

  // Each shard file carries the full dictionary in the store's intern
  // order, so TermIds are bundle-global and no id translation exists
  // anywhere in the read path.
  const Dictionary& dict = store.dict();
  std::vector<Status> statuses(options.shard_count);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(options.shard_count);
  for (uint32_t shard = 0; shard < options.shard_count; ++shard) {
    tasks.push_back([&, shard] {
      TripleStore shard_store;
      for (TermId id = 0; id < dict.size(); ++id) {
        shard_store.dict().Intern(dict.Name(id));
      }
      for (uint32_t idx : partition[shard]) {
        const Triple& t = triples[idx];
        shard_store.AddEncoded(t.s, t.p, t.o, t.score);
      }
      shard_store.Finalize();
      statuses[shard] = SaveStore(
          shard_store, (fs::path(dir) / BundleShardFileName(shard)).string());
    });
  }
  if (options.pool != nullptr) {
    options.pool->RunAndWait(&tasks);
  } else {
    for (auto& task : tasks) task();
  }
  for (const Status& status : statuses) SPECQP_RETURN_IF_ERROR(status);

  return WriteBundleManifest(dir, options.shard_count, options.scheme);
}

Result<std::unique_ptr<ShardedStore>> ShardedStore::Open(
    const std::string& path, const Options& options) {
  std::error_code ec;
  fs::path dir(path);
  if (!fs::is_directory(dir, ec)) dir = dir.parent_path();
  const std::string manifest_path =
      (dir / bundle::kManifestFileName).string();

  std::ifstream in(manifest_path, std::ios::binary);
  if (!in) return Status::IoError("cannot open bundle manifest: " +
                                  manifest_path);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  if (bytes.size() < sizeof(bundle::ManifestHeader) + sizeof(uint32_t)) {
    return Status::Corruption("truncated bundle manifest: " + manifest_path);
  }

  bundle::ManifestHeader header{};
  std::memcpy(&header, bytes.data(), sizeof(header));
  if (std::memcmp(header.magic, bundle::kMagic, sizeof(header.magic)) != 0) {
    return Status::Corruption("bad bundle manifest magic: " + manifest_path);
  }
  if (header.version != bundle::kFormatVersion) {
    return Status::Corruption("unsupported bundle manifest version: " +
                              manifest_path);
  }
  if (header.shard_count == 0 || header.shard_count > bundle::kMaxShards) {
    return Status::Corruption("bundle shard count out of range: " +
                              manifest_path);
  }
  const auto scheme = static_cast<bundle::HashScheme>(header.hash_scheme);
  if (scheme != bundle::HashScheme::kSubject &&
      scheme != bundle::HashScheme::kPredicate) {
    return Status::Corruption("unknown bundle hash scheme: " + manifest_path);
  }
  if (header.store_format != v3::kFormatVersion) {
    return Status::Corruption("unsupported bundle store format: " +
                              manifest_path);
  }
  const size_t expected_size = sizeof(header) +
                               uint64_t{header.shard_count} *
                                   sizeof(bundle::ManifestShardEntry) +
                               sizeof(uint32_t);
  if (bytes.size() != expected_size) {
    return Status::Corruption("bundle manifest size disagrees with its "
                              "shard count: " +
                              manifest_path);
  }
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, bytes.data() + bytes.size() - sizeof(uint32_t),
              sizeof(uint32_t));
  if (Crc32c(bytes.data(), bytes.size() - sizeof(uint32_t)) != stored_crc) {
    return Status::Corruption("bundle manifest checksum mismatch: " +
                              manifest_path);
  }

  std::vector<bundle::ManifestShardEntry> entries(header.shard_count);
  std::memcpy(entries.data(), bytes.data() + sizeof(header),
              entries.size() * sizeof(entries[0]));
  for (uint32_t i = 0; i < header.shard_count; ++i) {
    if (entries[i].shard_id != i || entries[i].reserved != 0) {
      return Status::Corruption("bundle manifest shard ids must be 0..N-1 "
                                "in order: " +
                                manifest_path);
    }
  }

  // Every shard file the manifest names must exist, and no extra shard
  // files may be present — a stray or missing shard_*.sqps is treated as
  // corruption, not silently ignored or half-opened. Under quarantine a
  // MISSING shard is a per-shard failure handled below (retry, then serve
  // degraded), but an EXTRA shard file is still a writer-contract breach
  // no amount of retrying fixes.
  const uint64_t present = CountBundleShardFiles(dir);
  if (options.allow_quarantine ? present > header.shard_count
                               : present != header.shard_count) {
    return Status::Corruption(
        "bundle shard file count disagrees with manifest: " + manifest_path);
  }

  auto sharded = std::unique_ptr<ShardedStore>(new ShardedStore());
  sharded->scheme_ = scheme;
  sharded->runtime_ =
      std::make_unique<ShardRuntime[]>(header.shard_count);
  {
    // Pre-publication (no concurrent readers yet), but taking the lock
    // keeps the guarded_by contract unconditional.
    MutexLock lock(sharded->quarantine_mutex_);
    sharded->quarantine_reasons_.resize(header.shard_count);
  }

  uint64_t total_triples = 0;
  for (uint32_t i = 0; i < header.shard_count; ++i) {
    const std::string shard_path = (dir / BundleShardFileName(i)).string();
    // One open attempt: validate the prefix against the manifest, then
    // map. Returned (not thrown) statuses classify retryability:
    // IoError-class failures (missing file, injected shard.open) may be
    // transient; Corruption (digest/format/count/dict mismatches) is
    // final.
    const auto open_one = [&]() -> Result<std::unique_ptr<MmapStore>> {
      if (FaultShouldFail("shard.open", i)) {
        return Status::IoError("injected fault: shard.open for " + shard_path);
      }
      SPECQP_ASSIGN_OR_RETURN(ShardTable table, ReadShardTable(shard_path));
      if (table.file_size != entries[i].file_size ||
          table.table_crc32c != entries[i].table_crc32c) {
        return Status::Corruption(
            "shard file disagrees with manifest digest: " + shard_path);
      }
      if (table.triple_count != entries[i].triple_count ||
          table.term_count != header.term_count) {
        return Status::Corruption("shard counts disagree with manifest: " +
                                  shard_path);
      }
      if (table.dict_crc32c != entries[i].dict_crc32c ||
          table.dict_crc32c != entries[0].dict_crc32c) {
        return Status::Corruption(
            "shard dictionary differs across the bundle: " + shard_path);
      }
      MmapStore::Options open_options;
      open_options.verify = options.verify;
      return MmapStore::Open(shard_path, open_options);
    };

    Result<std::unique_ptr<MmapStore>> shard =
        options.allow_quarantine ? RunWithRetry(options.open_retry, open_one)
                                 : open_one();
    if (!shard.ok()) {
      if (!options.allow_quarantine) return shard.status();
      // Exhausted its retries (or failed finally): quarantine the slot
      // and serve from the survivors.
      sharded->shards_.push_back(nullptr);
      sharded->runtime_[i].quarantined.store(true, std::memory_order_release);
      sharded->quarantined_count_.fetch_add(1, std::memory_order_acq_rel);
      {
        MutexLock lock(sharded->quarantine_mutex_);
        sharded->quarantine_reasons_[i] = shard.status().ToString();
      }
      continue;
    }
    total_triples += entries[i].triple_count;
    sharded->shards_.push_back(std::move(shard.value()));
  }
  const uint32_t failed_at_open =
      sharded->quarantined_count_.load(std::memory_order_acquire);
  if (failed_at_open == header.shard_count) {
    return Status::Unavailable(
        "every shard of the bundle failed to open: " + manifest_path);
  }
  if (failed_at_open == 0 && total_triples != header.total_triples) {
    return Status::Corruption("bundle triple total disagrees with manifest: " +
                              manifest_path);
  }

  // Eager verification re-hashes every triple's shard assignment: a
  // triple sitting in the wrong shard is invisible to the merge (which is
  // hash-agnostic) but breaks the writer contract and would desync any
  // out-of-process re-shard, so strict readers reject it.
  if (options.verify == MmapStore::Verify::kEager) {
    for (uint32_t shard = 0; shard < sharded->shards_.size(); ++shard) {
      if (sharded->shards_[shard] == nullptr) continue;
      for (const Triple& t : sharded->shards_[shard]->store().triples()) {
        if (BundleShardOfTriple(t, scheme,
                                static_cast<uint32_t>(
                                    sharded->shards_.size())) != shard) {
          return Status::Corruption("triple hashed into the wrong shard: " +
                                    (dir / BundleShardFileName(shard))
                                        .string());
        }
      }
    }
  }

  SPECQP_RETURN_IF_ERROR(sharded->BuildGlobalOrder());

  sharded->gather_ =
      std::make_unique<GatherCounters[]>(sharded->shards_.size());
  const MmapStore* first_alive = nullptr;
  for (const auto& shard : sharded->shards_) {
    if (shard != nullptr) {
      first_alive = shard.get();
      break;
    }
  }
  // Every shard carries the full dictionary in identical intern order, so
  // any survivor's view is THE bundle dictionary.
  sharded->facade_ = TripleStore::FromShardedSource(
      first_alive->NewDictionaryView(), sharded.get());
  return sharded;
}

Status ShardedStore::BuildGlobalOrder() {
  const size_t n = shards_.size();
  uint64_t total = 0;
  std::vector<std::span<const Triple>> rows(n);
  for (size_t s = 0; s < n; ++s) {
    // A shard quarantined at open contributes nothing: the global space
    // is the SPO merge of the SURVIVORS (what a single-file store over
    // the surviving triples would look like).
    if (shards_[s] != nullptr) rows[s] = shards_[s]->store().triples();
    total += rows[s].size();
  }
  if (total > UINT32_MAX) {
    return Status::Corruption("bundle exceeds the 2^32 global triple space");
  }

  loc_shard_.resize(total);
  loc_local_.resize(total);
  global_of_.resize(n);
  for (size_t s = 0; s < n; ++s) {
    global_of_[s].resize(rows[s].size());
  }

  // N-way merge by SPO order. Each shard is locally SPO-sorted (its
  // writer finalized it), so the merged sequence must be STRICTLY
  // ascending; an equal or descending step means a cross-shard duplicate
  // triple or an unsorted shard — either way the bundle is corrupt.
  std::vector<size_t> head(n, 0);
  const Triple* prev = nullptr;
  for (uint64_t global = 0; global < total; ++global) {
    size_t best = n;
    for (size_t s = 0; s < n; ++s) {
      if (head[s] == rows[s].size()) continue;
      if (best == n ||
          OrderSpo()(rows[s][head[s]], rows[best][head[best]])) {
        best = s;
      }
    }
    const Triple& t = rows[best][head[best]];
    if (prev != nullptr && !OrderSpo()(*prev, t)) {
      return Status::Corruption(
          "bundle shards overlap or are unsorted: duplicate or descending "
          "triple in the SPO merge");
    }
    prev = &t;
    loc_shard_[global] = static_cast<uint16_t>(best);
    loc_local_[global] = static_cast<uint32_t>(head[best]);
    global_of_[best][head[best]] = static_cast<uint32_t>(global);
    ++head[best];
  }
  return Status::Ok();
}

const Triple& ShardedStore::TripleAt(uint32_t global_index) const {
  return TripleUncounted(global_index);
}

std::span<const uint32_t> ShardedStore::Match(const PatternKey& key) const {
  const size_t n = shards_.size();
  // A shard can fault mid-gather (zero-filled pages, injected
  // shard.read): quarantine it and RESTART the whole scatter over the
  // survivors rather than patching a half-built merge. Each restart
  // needs a fresh quarantine, so the loop is bounded by the shard count.
  for (size_t attempt = 0; attempt <= n + 1; ++attempt) {
    const uint64_t epoch0 = fault_epoch_.load(std::memory_order_acquire);
    {
      MutexLock lock(memo_mutex_);
      auto it = match_memo_.find(key);
      if (it != match_memo_.end() && it->second.epoch == epoch0) {
        return it->second.ids;
      }
    }

    // Scatter: each live shard answers the pattern from its own
    // permutation indexes, in the route's value order, as local indices
    // mapped to the global space here.
    const Route route = RouteOf(key);
    std::vector<std::vector<uint32_t>> scattered(n);
    size_t total = 0;
    bool restart = false;
    for (size_t s = 0; s < n && !restart; ++s) {
      if (!shard_alive(s)) continue;
      // Poll cancellation between per-shard probes so a cancelled query
      // aborts promptly even mid-scatter over large shards. Returned
      // early results are NEVER memoised (and the posting-list cache
      // skips inserts under an active stop), so a truncated gather can't
      // poison later queries.
      if (ScopedStopProbe::StopRequested()) return {};
      if (FaultShouldFail("shard.read", s)) {
        Quarantine(s, "injected fault: shard.read");
        restart = true;
        break;
      }
      const std::span<const uint32_t> local =
          shards_[s]->store().MatchIndices(key);
      scattered[s].reserve(local.size());
      // Bound-check against zero-page garbage: a faulted mapping's index
      // pages read as zeros, which can produce out-of-range locals. The
      // sweep below catches the fault; the clamp keeps this pass safe.
      const std::vector<uint32_t>& to_global = global_of_[s];
      for (uint32_t idx : local) {
        if (idx < to_global.size()) scattered[s].push_back(to_global[idx]);
      }
      total += scattered[s].size();
    }
    PollFaults();
    if (restart || fault_epoch_.load(std::memory_order_acquire) != epoch0) {
      continue;
    }

    // Gather: K-way merge under the route's total order. Each per-shard
    // list is already in that order and the orders are total over unique
    // triples, so the merge has no ties and reproduces exactly the
    // subrange a single-file store's index would return.
    std::vector<uint32_t> merged;
    merged.reserve(total);
    std::vector<size_t> head(n, 0);
    uint32_t steps = 0;
    while (merged.size() < total) {
      if ((++steps & 8191u) == 0 && ScopedStopProbe::StopRequested()) {
        return {};
      }
      size_t best = n;
      for (size_t s = 0; s < n; ++s) {
        if (head[s] == scattered[s].size()) continue;
        if (best == n ||
            RouteBefore(TripleUncounted(scattered[s][head[s]]),
                        TripleUncounted(scattered[best][head[best]]), route)) {
          best = s;
        }
      }
      merged.push_back(scattered[best][head[best]++]);
    }
    // The merge dereferenced triples through the shard mappings; sweep
    // again so a page lost DURING the merge invalidates this pass.
    PollFaults();

    MutexLock lock(memo_mutex_);
    if (fault_epoch_.load(std::memory_order_acquire) != epoch0) continue;
    for (size_t s = 0; s < n; ++s) {
      if (scattered[s].empty() && !shard_alive(s)) continue;
      gather_[s].patterns.fetch_add(1, std::memory_order_relaxed);
      gather_[s].triples.fetch_add(scattered[s].size(),
                                   std::memory_order_relaxed);
    }
    auto [it, inserted] = match_memo_.try_emplace(key);
    if (!inserted) {
      if (it->second.epoch == epoch0) return it->second.ids;  // racer won
      // Stale generation: its buffer may back spans already handed out,
      // so retire it instead of freeing it.
      retired_.push_back(std::move(it->second.ids));
    }
    it->second.epoch = epoch0;
    it->second.ids = std::move(merged);
    return it->second.ids;
  }
  // Unreachable without a quarantine per attempt; by then every shard is
  // gone and the empty answer is the right degraded one.
  return {};
}

void ShardedStore::Quarantine(size_t i, const std::string& reason) const {
  MutexLock lock(quarantine_mutex_);
  if (runtime_[i].quarantined.load(std::memory_order_acquire)) return;
  // Order matters for readers without the lock: the per-shard flag first
  // (scatters stop touching the shard), the epoch last (a reader that
  // sees the old epoch and serves a pre-fault answer is then invalidated
  // by its own post-pass epoch check).
  runtime_[i].quarantined.store(true, std::memory_order_release);
  quarantined_count_.fetch_add(1, std::memory_order_acq_rel);
  quarantine_reasons_[i] = reason;
  fault_epoch_.fetch_add(1, std::memory_order_acq_rel);
}

std::string ShardedStore::quarantine_reason(size_t i) const {
  MutexLock lock(quarantine_mutex_);
  return quarantine_reasons_[i];
}

void ShardedStore::PollFaults() const {
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (shard_alive(s) && shards_[s]->mapping_faults() > 0) {
      Quarantine(s, StrFormat("mapping lost %llu page(s) (SIGBUS contained, "
                              "zero-filled)",
                              static_cast<unsigned long long>(
                                  shards_[s]->mapping_faults())));
    }
  }
}

size_t ShardedStore::bytes_mapped() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    if (shard != nullptr) total += shard->bytes_mapped();
  }
  return total;
}

std::vector<ShardedStore::ShardCounters> ShardedStore::Counters() const {
  std::vector<ShardCounters> out(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    out[s].shard_id = static_cast<uint32_t>(s);
    if (shards_[s] != nullptr) {
      out[s].triple_count = shards_[s]->store().size();
      out[s].bytes_mapped = shards_[s]->bytes_mapped();
    }
    out[s].triples_gathered =
        gather_[s].triples.load(std::memory_order_relaxed);
    out[s].patterns_scattered =
        gather_[s].patterns.load(std::memory_order_relaxed);
  }
  return out;
}

}  // namespace specqp
