#ifndef SPECQP_UTIL_FAULT_INJECTOR_H_
#define SPECQP_UTIL_FAULT_INJECTOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace specqp {

// Registry of every fault site the tree probes. A site string used with
// FaultShouldFail anywhere under src/ MUST appear here (enforced by
// scripts/specqp_lint.py rule 2), so a fault plan cannot silently name a
// site that no longer exists — and the chaos harness can enumerate every
// injection point without grepping.
inline constexpr std::string_view kFaultSiteRegistry[] = {
    "store.open",    // mmap_store.cc: opening a store file
    "shard.open",    // sharded_store.cc: opening one shard of a bundle
    "shard.read",    // sharded_store.cc: per-shard scatter-gather read
    "block.decode",  // posting_blocks.cc: decoding one compressed block
    "cache.alloc",   // posting_list.cc: posting-list build/cache insert
};

// True when `site` is registered in kFaultSiteRegistry.
constexpr bool IsRegisteredFaultSite(std::string_view site) {
  for (std::string_view s : kFaultSiteRegistry) {
    if (s == site) return true;
  }
  return false;
}

// Process-wide deterministic fault injection.
//
// Code that touches failure-prone resources declares a *fault site* — a short
// dotted identifier such as "shard.open", "shard.read", "block.decode",
// "cache.alloc", "store.open" — and probes it on the failure-prone path:
//
//   if (FaultShouldFail("shard.open", shard_index)) {
//     return Status::IoError("injected fault: shard.open");
//   }
//
// Whether a probe fires is decided by a *fault plan*, a semicolon-separated
// list of `site=spec` entries plus an optional seed:
//
//   "seed=42;shard.open=0.5;block.decode=0.01"   // probabilistic
//   "shard.open.3=1"                             // shard 3 always fails
//   "shard.open=1@2"                             // first two probes fail,
//                                                // later ones succeed
//
// A spec is `<probability>` in [0,1], optionally followed by `@<max_fires>`
// capping the total number of times the site may fire. Instance-qualified
// probes (`FaultShouldFail(site, i)`) first look up "<site>.<i>" and fall
// back to the bare site, so a plan can target one shard or all of them.
//
// Decisions are a pure function of (seed, site, per-site probe counter), so a
// given plan replays the identical fault schedule on every run — including
// across processes — as long as the probe order is deterministic. Probe
// counters are per-site atomics, so under multi-threaded execution the
// *number* of fires converges but their assignment to threads may vary; the
// chaos harness relies only on the former.
//
// With no plan configured the injector is disarmed and every probe is a
// single relaxed atomic load plus an untaken branch — cheap enough to leave
// in release builds (verified by the micro_operators overhead check).
//
// Configuration is NOT thread-safe with respect to in-flight probes:
// configure before serving (Engine::OpenFromPath does this from
// EngineOptions::fault_plan) or between queries in tests.
class FaultInjector {
 public:
  // The process-wide injector. First access reads SPECQP_FAULT_PLAN from the
  // environment (a malformed env plan is ignored with a warning so that a
  // typo cannot make every binary unusable).
  static FaultInjector& Global();

  // Parses and installs `plan`; an empty plan disarms the injector. On a
  // parse error the previous plan is left untouched. Resets all counters.
  [[nodiscard]] Status Configure(std::string_view plan);

  // Removes the active plan; probes return to the no-op fast path.
  void Disarm();

  bool armed() const;
  // The currently installed plan string (empty when disarmed).
  std::string plan() const;

  // Decides whether the probe at `site` fires now. Called via the
  // FaultShouldFail free functions below, which handle the disarmed fast
  // path; calling Probe directly skips that fast path.
  //
  // Deliberately lock-free: probes read sites_/seed_ without mutex_. Safe
  // because the map is only mutated in Configure/Disarm, which are
  // documented not to run concurrently with probes, and a probe that
  // observes g_fault_armed==true happens-after the release-store that
  // published the fully-built map. The thread-safety analysis cannot see
  // that protocol, so these two are opted out.
  bool Probe(std::string_view site) SPECQP_NO_THREAD_SAFETY_ANALYSIS;
  // Instance-qualified probe: tries "<site>.<instance>" first, then `site`.
  bool Probe(std::string_view site,
             uint64_t instance) SPECQP_NO_THREAD_SAFETY_ANALYSIS;

  // Observability for tests and benches. Counts are cumulative since the
  // last Configure()/ResetCounters(). An unknown site reads as zero.
  uint64_t FireCount(std::string_view site) const;
  uint64_t ProbeCount(std::string_view site) const;
  void ResetCounters();

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

 private:
  FaultInjector();

  struct Site {
    double probability = 0.0;
    uint64_t max_fires = ~0ull;
    uint64_t key_hash = 0;  // hash of the site name, for the fire decision
    std::atomic<uint64_t> probes{0};
    std::atomic<uint64_t> fires{0};
  };

  // Same armed-flag protocol as Probe: reads seed_ without the lock.
  bool ProbeSite(Site* site) const SPECQP_NO_THREAD_SAFETY_ANALYSIS;

  mutable Mutex mutex_;  // guards plan_ / seed_ / sites_ mutation
  std::string plan_ SPECQP_GUARDED_BY(mutex_);
  uint64_t seed_ SPECQP_GUARDED_BY(mutex_) = 0;
  // Heap-allocated Sites so lookups can hand out stable pointers; the map
  // itself is only mutated under mutex_ in Configure (probes happen-after
  // the armed release-store, see fault_internal::g_fault_armed).
  std::unordered_map<std::string, std::unique_ptr<Site>> sites_
      SPECQP_GUARDED_BY(mutex_);
};

namespace fault_internal {
// Hot-path armed flag, separate from the singleton so the disarmed check
// never pays the Global() magic-static guard. Store with release in
// Configure/Disarm; load with acquire in probes so a probe that observes
// armed==true also observes the fully-built site map.
extern std::atomic<bool> g_fault_armed;
}  // namespace fault_internal

// Returns true when the active fault plan says the probe at `site` fires.
// Disarmed cost: one relaxed-ish atomic load and an untaken branch.
inline bool FaultShouldFail(std::string_view site) {
  if (!fault_internal::g_fault_armed.load(std::memory_order_acquire)) {
    return false;
  }
  return FaultInjector::Global().Probe(site);
}

inline bool FaultShouldFail(std::string_view site, uint64_t instance) {
  if (!fault_internal::g_fault_armed.load(std::memory_order_acquire)) {
    return false;
  }
  return FaultInjector::Global().Probe(site, instance);
}

// Test helper: installs `plan` for the lifetime of the scope, restoring the
// previously active plan (including "no plan") on destruction. [[nodiscard]]
// so `ScopedFaultPlan("...");` — a guard that dies immediately, arming
// nothing — is a compile-time warning instead of a silent no-op.
class [[nodiscard]] ScopedFaultPlan {
 public:
  explicit ScopedFaultPlan(std::string_view plan);
  ~ScopedFaultPlan();

  ScopedFaultPlan(const ScopedFaultPlan&) = delete;
  ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;

 private:
  std::string previous_;
};

}  // namespace specqp

#endif  // SPECQP_UTIL_FAULT_INJECTOR_H_
