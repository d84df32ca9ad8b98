// Memory-latency noise stamp: chases dependent loads through one random
// cycle over 8 MiB of cache-line-sized nodes and prints the mean
// nanoseconds per load on one line. Every load needs the previous one's
// result, so the figure is the latency of a random access into 8 MiB,
// which on a shared host moves with the machine's load (33 to 160 ns per
// access has been seen for minutes at a time). A stamp takes under 0.3 s:
// the timed chase stops after 0.15 s or 2^21 loads.
//
//   c++ -O2 -o memory_latency_probe scripts/memory_latency_probe.cc
//   ./memory_latency_probe            # e.g. "87.4"
//
// scripts/ab_bench.py runs it before and after every benchmark run.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <random>
#include <utility>
#include <vector>

namespace {

constexpr size_t kBytes = 8u << 20;
struct alignas(64) Node {
  uint32_t next;
};
constexpr size_t kNodes = kBytes / sizeof(Node);
// Loads per timed chunk, and the bounds of the timed loop.
constexpr uint64_t kChunk = 1u << 15;
constexpr uint64_t kMaxLoads = 1u << 21;
constexpr double kMaxSeconds = 0.15;

}  // namespace

int main() {
  // Sattolo's shuffle: a uniformly random permutation with one cycle, so
  // the chase visits every node before it repeats.
  std::vector<Node> nodes(kNodes);
  for (size_t i = 0; i < kNodes; ++i) nodes[i].next = static_cast<uint32_t>(i);
  std::mt19937_64 rng(20261019);
  for (size_t i = kNodes - 1; i > 0; --i) {
    std::uniform_int_distribution<size_t> pick(0, i - 1);
    std::swap(nodes[i].next, nodes[pick(rng)].next);
  }

  using Clock = std::chrono::steady_clock;
  uint32_t at = 0;
  for (size_t i = 0; i < kNodes; ++i) at = nodes[at].next;  // warm the TLB
  uint64_t loads = 0;
  const auto start = Clock::now();
  double seconds = 0.0;
  while (loads < kMaxLoads && seconds < kMaxSeconds) {
    for (uint64_t i = 0; i < kChunk; ++i) at = nodes[at].next;
    loads += kChunk;
    seconds = std::chrono::duration<double>(Clock::now() - start).count();
  }
  // The chase's end is stored, so the loads cannot be optimised away.
  volatile uint32_t sink = at;
  (void)sink;
  std::printf("%.1f\n", seconds * 1e9 / static_cast<double>(loads));
  return 0;
}
