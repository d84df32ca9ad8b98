// Allocation guard for the operator row path: draining a workload-shaped
// operator tree must not allocate per row. This binary replaces the global
// allocation functions with counting ones; every other test binary keeps the
// default allocator.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rdf/posting_list.h"
#include "rdf/triple_pattern.h"
#include "rdf/triple_store.h"
#include "topk/exec_context.h"
#include "topk/incremental_merge.h"
#include "topk/pattern_scan.h"
#include "topk/rank_join.h"
#include "util/random.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  std::size_t alignment = static_cast<std::size_t>(align);
  if (alignment < sizeof(void*)) alignment = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, alignment, size == 0 ? 1 : size) != 0) {
    return nullptr;
  }
  return p;
}

void* OrThrow(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

// Out of line, so the optimiser does not see free() applied to a pointer
// from operator new after inlining (GCC's -Wmismatched-new-delete); the
// pairing is right, because every operator new here allocates with malloc.
[[gnu::noinline]] void Release(void* p) noexcept { std::free(p); }

}  // namespace

// Every replaceable form is defined here, so no allocation reaches a
// sanitizer runtime's own operator new and every block is released with the
// free() that matches its malloc().
void* operator new(std::size_t size) { return OrThrow(CountedAlloc(size)); }
void* operator new[](std::size_t size) { return OrThrow(CountedAlloc(size)); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return OrThrow(CountedAlignedAlloc(size, align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return OrThrow(CountedAlignedAlloc(size, align));
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { Release(p); }
void operator delete[](void* p) noexcept { Release(p); }
void operator delete(void* p, std::size_t) noexcept { Release(p); }
void operator delete[](void* p, std::size_t) noexcept { Release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { Release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  Release(p);
}
void operator delete(void* p, std::align_val_t) noexcept { Release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { Release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  Release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  Release(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  Release(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  Release(p);
}

namespace specqp {
namespace {

constexpr size_t kSubjects = 3000;
constexpr size_t kMergeInputs = 21;

// "<prefix><i>" (built by append: GCC 12 flags `"c" + std::to_string(i)`
// with a false -Wrestrict).
std::string Term(char prefix, size_t i) {
  std::string term(1, prefix);
  term += std::to_string(i);
  return term;
}

// A star-query slice shaped like the XKG workload: ?s <type> <o0> (the join
// group's scan) joined on ?s with an incremental merge over one pattern and
// its 20 relaxations (?s <cat> <c0..c20>, decreasing rule weights).
struct Fixture {
  TripleStore store;
  PostingListCache cache{&store};

  Fixture() {
    Rng rng(2024);
    for (size_t i = 0; i < kSubjects; ++i) {
      const std::string s = Term('s', i);
      if (rng.NextBounded(3) != 0) {
        store.Add(s, "type", "o0", rng.NextDouble(0.0, 100.0));
      }
      for (int n = 0; n < 3; ++n) {
        store.Add(s, "cat", Term('c', rng.NextBounded(kMergeInputs)),
                  rng.NextDouble(0.0, 100.0));
      }
    }
    store.Finalize();
  }

  std::unique_ptr<PatternScan> Scan(const std::string& p, const std::string& o,
                                    double weight, ExecContext* ctx) {
    const TriplePattern pattern(PatternTerm::Var(0),
                                PatternTerm::Const(store.MustId(p)),
                                PatternTerm::Const(store.MustId(o)));
    // Width 2: the query's ?s plus one slot left unbound, as a chain
    // relaxation's scratch slot would be.
    return std::make_unique<PatternScan>(&store, cache.Get(pattern.Key()),
                                         pattern, /*width=*/2, weight, ctx);
  }
};

TEST(TopKAllocationTest, DrainingJoinOverMergeAllocatesOnlyToGrowArenas) {
  const uint64_t at_start = g_allocations.load(std::memory_order_relaxed);
  Fixture fx;
  // Guards the guard: building the store must register in the counter, or
  // the replaced operator new is not the one in use (a sanitizer runtime's
  // would make the bound below pass vacuously).
  ASSERT_GT(g_allocations.load(std::memory_order_relaxed) - at_start, 1000u);
  ExecStats stats;
  ExecContext ctx(&stats);
  std::vector<std::unique_ptr<ScoredRowIterator>> inputs;
  for (size_t i = 0; i < kMergeInputs; ++i) {
    const double weight = i == 0 ? 1.0 : 1.0 - 0.04 * static_cast<double>(i);
    inputs.push_back(fx.Scan("cat", Term('c', i), weight, &ctx));
  }
  RankJoin join(fx.Scan("type", "o0", 1.0, &ctx),
                std::make_unique<IncrementalMerge>(std::move(inputs), &ctx),
                {0}, &ctx);

  ScoredRow row;
  uint64_t emitted = 0;
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  while (join.Next(&row)) ++emitted;
  const uint64_t allocations =
      g_allocations.load(std::memory_order_relaxed) - before;

  // The tree did the work the bound is stated against.
  ASSERT_GT(stats.scan_rows, 10000u);
  ASSERT_GT(stats.join_results, 1000u);
  ASSERT_GT(stats.merge_duplicates, 0u);
  EXPECT_EQ(emitted, stats.join_results);
  EXPECT_LE(static_cast<double>(allocations),
            0.05 * static_cast<double>(stats.scan_rows))
      << allocations << " allocations for " << stats.scan_rows
      << " scan rows and " << stats.answer_objects << " answer objects";
}

}  // namespace
}  // namespace specqp
