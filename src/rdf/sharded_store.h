#ifndef SPECQP_RDF_SHARDED_STORE_H_
#define SPECQP_RDF_SHARDED_STORE_H_

#include <atomic>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "rdf/mmap_store.h"
#include "rdf/store_format.h"
#include "rdf/triple_store.h"
#include "util/mutex.h"
#include "util/result.h"
#include "util/retry.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace specqp {

class ThreadPool;  // util/thread_pool.h

// Sharded store bundles ("SQPBNDL1", docs/FORMATS.md): one manifest plus
// N self-contained SQPSTOR3 shard files, hash-partitioned on subject or
// predicate. The reader side is ShardedStore below; the writer side is
// WriteShardBundle (split an existing finalized store) and
// WriteBundleManifest (seal a directory of shard files written by any
// producer — tools/store_shard streams per-shard generation through it
// without ever materialising the whole graph).

// Deterministic shard assignment: a multiplicative hash of the term id,
// reduced mod shard_count. Part of the on-disk contract — the manifest
// records only the scheme (subject/predicate), not the hash, so readers
// and writers must agree on this function forever.
inline uint32_t BundleShardOf(TermId key, uint32_t shard_count) {
  const uint64_t h = (uint64_t{key} + 1) * 0x9E3779B97F4A7C15ULL;
  return static_cast<uint32_t>((h >> 32) % shard_count);
}

// The triple's shard under a scheme: hash of the subject or predicate.
inline uint32_t BundleShardOfTriple(const Triple& t,
                                    bundle::HashScheme scheme,
                                    uint32_t shard_count) {
  return BundleShardOf(
      scheme == bundle::HashScheme::kPredicate ? t.p : t.s, shard_count);
}

// "shard_0007.sqps" — the bundle's shard file naming contract.
std::string BundleShardFileName(uint32_t shard_id);

// True when `path` names a bundle: a directory holding manifest.sqpb, or
// the manifest file itself (identified by its magic). Engine::OpenFromPath
// probes this before the single-file store formats.
bool IsBundlePath(const std::string& path);

struct ShardBundleOptions {
  uint32_t shard_count = 2;
  bundle::HashScheme scheme = bundle::HashScheme::kSubject;
  // Shard files are built and written concurrently when a pool is given
  // (one task per shard); null builds them sequentially.
  ThreadPool* pool = nullptr;
};

// Splits a finalized (non-sharded) store into `options.shard_count` shard
// files under the directory `dir` (created if absent) and writes the
// manifest. Every shard file carries the full dictionary in the store's
// intern order, so shard TermIds are the store's TermIds.
[[nodiscard]] Status WriteShardBundle(const TripleStore& store, const std::string& dir,
                        const ShardBundleOptions& options = {});

// Seals a bundle directory: reads back the header + section table of every
// shard_<id>.sqps (0 <= id < shard_count), checks each is a store file of
// the current format and that they agree on the dictionary, and writes
// manifest.sqpb with their sizes, triple counts, and digests. Writers
// that stream shards to disk call this once after the last shard lands.
[[nodiscard]] Status WriteBundleManifest(const std::string& dir, uint32_t shard_count,
                           bundle::HashScheme scheme);

// N cooperating MmapStores behind one TripleStore facade.
//
// Open() validates the manifest (magic, version, counts, trailing CRC,
// per-shard digests, one dictionary across all shards), maps every shard,
// and builds the GLOBAL triple index space: an N-way merge of the shards'
// SPO-sorted triple arrays into locator arrays (global -> shard, local)
// and (shard, local) -> global. Because each shard is locally SPO-sorted
// and the merge is by the same total order, the global space IS the SPO
// order of the union — exactly the index space a single-file store over
// the same triples would have. PatternScan and posting resolution then
// scatter per-pattern lookups across the shards' own permutation indexes
// and gather the subranges back through the same merge order, so posting
// lists — and therefore top-k answers — are bit-identical to the
// single-file backend at any shard count (the determinism argument is
// spelled out in docs/ARCHITECTURE.md).
//
// The merge doubles as integrity checking: any cross-shard duplicate
// triple or locally unsorted shard breaks strict SPO ascent and returns
// Status::Corruption. Verify::kEager additionally CRC-verifies every
// shard section and re-hashes every triple's shard assignment, rejecting
// bundles whose triples landed in the wrong shard.
//
// Thread-safe for concurrent queries: per-pattern gathers are memoised
// under a mutex (spans stay valid for the store's lifetime), per-triple
// access is lock-free.
// Shard failure isolation (opt-in via Options::allow_quarantine):
//
//   open time   A shard that fails to open — missing file, IO error,
//               digest/format/count mismatch, injected "shard.open" fault
//               — is retried under Options::open_retry (IO-class failures
//               only; corruption is final) and then QUARANTINED: the
//               bundle opens over the survivors, whose N-way merge
//               defines the (reduced) global space. All shards failing
//               turns Open into kUnavailable.
//
//   runtime     A shard whose mapping loses pages (SIGBUS containment,
//               rdf/mapped_fault.h) or that draws an injected
//               "shard.read" fault is quarantined mid-flight: it keeps
//               its slots in the ORIGINAL global space (locators stay
//               valid — quarantine never renumbers anything) but every
//               later scatter skips it, so new answers cover survivors
//               only. Each quarantine bumps fault_epoch(); memoised
//               gathers are epoch-tagged and stale entries are retired
//               (never freed while the store lives, so previously handed
//               out spans stay valid) and recomputed on next use. The
//               engine snapshots the epoch around each query: a bump
//               mid-query invalidates that query's answer and derived
//               caches.
//
// With allow_quarantine false (the default) every failure above is
// surfaced exactly as before: Open returns the shard's error and runtime
// faults surface through the engine's poll as IoError — nothing is
// masked. This keeps strict single-writer deployments and the hostile-
// input battery byte-for-byte unchanged.
class ShardedStore : public ShardedTripleSource {
 public:
  struct Options {
    Options() : verify(MmapStore::Verify::kLazy), allow_quarantine(false) {
      // Shard opens are latency-sensitive (N of them, serial): keep the
      // default retry budget small. Callers tune open_retry directly.
      open_retry.max_attempts = 3;
      open_retry.initial_backoff = std::chrono::microseconds(500);
      open_retry.max_backoff = std::chrono::microseconds(10000);
    }
    MmapStore::Verify verify;
    // Opt into degraded serving: failed shards are quarantined instead of
    // failing the whole bundle (see the class comment).
    bool allow_quarantine;
    // Backoff schedule for transient (IO-class) shard-open failures; only
    // consulted when allow_quarantine is set.
    RetryPolicy open_retry;
  };

  [[nodiscard]] static Result<std::unique_ptr<ShardedStore>> Open(
      const std::string& path, const Options& options = Options());

  ShardedStore(const ShardedStore&) = delete;
  ShardedStore& operator=(const ShardedStore&) = delete;

  // The merged zero-copy facade (finalized, read-only). Valid while this
  // ShardedStore is alive.
  const TripleStore& store() const { return facade_; }

  uint32_t shard_count() const {
    return static_cast<uint32_t>(shards_.size());
  }
  // Precondition: shard_alive(i) — a quarantined-at-open shard has no
  // mapping behind it.
  const MmapStore& shard(size_t i) const { return *shards_[i]; }
  bundle::HashScheme scheme() const { return scheme_; }

  // --- failure surface ------------------------------------------------------

  // True when shard i opened and has not been quarantined.
  bool shard_alive(size_t i) const {
    return shards_[i] != nullptr &&
           !runtime_[i].quarantined.load(std::memory_order_acquire);
  }
  // Why shard i is quarantined; empty for live shards.
  std::string quarantine_reason(size_t i) const;
  // Pulls shard i out of serving (idempotent): later scatters skip it,
  // the fault epoch bumps, memoised gathers against the old shard set go
  // stale. Exposed for tests and operational tooling; production callers
  // are the fault sweeps.
  void Quarantine(size_t i, const std::string& reason) const;

  uint32_t ShardsTotal() const override {
    return static_cast<uint32_t>(shards_.size());
  }
  uint32_t ShardsFailed() const override {
    return quarantined_count_.load(std::memory_order_acquire);
  }
  uint64_t FaultEpoch() const override {
    return fault_epoch_.load(std::memory_order_acquire);
  }
  // Quarantines every live shard whose mapping latched a SIGBUS
  // containment fault. Cheap (one relaxed load per shard) — called
  // before/after each query and between Match scatter passes.
  void PollFaults() const override;

  // Sum of the shard mappings' sizes.
  size_t bytes_mapped() const;

  // Per-shard slice of the scatter-gather ledger: static shape (triples,
  // mapped bytes) plus the gather counters accumulated since open —
  // triples resolved through this shard and patterns whose scatter hit
  // it. Bench artifacts fold these under the per-run ExecStats.
  struct ShardCounters {
    uint32_t shard_id = 0;
    uint64_t triple_count = 0;
    uint64_t bytes_mapped = 0;
    uint64_t triples_gathered = 0;
    uint64_t patterns_scattered = 0;
  };
  std::vector<ShardCounters> Counters() const;

  // --- ShardedTripleSource (consumed via the TripleStore facade) ----------
  size_t NumTriples() const override { return loc_shard_.size(); }
  const Triple& TripleAt(uint32_t global_index) const override;
  void PrefetchTriple(uint32_t global_index) const override {
    shards_[loc_shard_[global_index]]->store().PrefetchTriple(
        loc_local_[global_index]);
  }
  std::span<const uint32_t> Match(const PatternKey& key) const override;

 private:
  ShardedStore() = default;

  // Uncounted triple access for internal merge/compare paths.
  const Triple& TripleUncounted(uint32_t global_index) const {
    return shards_[loc_shard_[global_index]]->store().triple(
        loc_local_[global_index]);
  }

  [[nodiscard]] Status BuildGlobalOrder();

  // nullptr = failed at open under allow_quarantine (excluded from the
  // global order; no mapping behind the slot).
  std::vector<std::unique_ptr<MmapStore>> shards_;
  bundle::HashScheme scheme_ = bundle::HashScheme::kSubject;

  // Locators: global index -> (shard, local index) and back.
  std::vector<uint16_t> loc_shard_;
  std::vector<uint32_t> loc_local_;
  std::vector<std::vector<uint32_t>> global_of_;  // [shard][local] -> global

  TripleStore facade_;

  // Per-shard runtime quarantine flag (separate from shards_ so the flag
  // is atomic and the mapping stays alive for in-flight readers).
  struct ShardRuntime {
    std::atomic<bool> quarantined{false};
  };
  std::unique_ptr<ShardRuntime[]> runtime_;
  mutable std::atomic<uint32_t> quarantined_count_{0};
  mutable std::atomic<uint64_t> fault_epoch_{0};
  // Serialises Quarantine() (reason bookkeeping); never held on read
  // paths.
  mutable Mutex quarantine_mutex_;
  mutable std::vector<std::string> quarantine_reasons_
      SPECQP_GUARDED_BY(quarantine_mutex_);

  // Memoised per-pattern gathers, tagged with the fault epoch they were
  // computed under; a stale entry is recomputed and its old buffer moved
  // to retired_ (spans already handed out must stay valid for the store's
  // lifetime — bounded: one generation per quarantine event).
  struct MemoEntry {
    uint64_t epoch = 0;
    std::vector<uint32_t> ids;
  };
  mutable Mutex memo_mutex_;
  mutable std::unordered_map<PatternKey, MemoEntry, PatternKeyHash> match_memo_
      SPECQP_GUARDED_BY(memo_mutex_);
  mutable std::vector<std::vector<uint32_t>> retired_
      SPECQP_GUARDED_BY(memo_mutex_);

  struct alignas(64) GatherCounters {
    std::atomic<uint64_t> triples{0};
    std::atomic<uint64_t> patterns{0};
  };
  std::unique_ptr<GatherCounters[]> gather_;
};

}  // namespace specqp

#endif  // SPECQP_RDF_SHARDED_STORE_H_
