// Multi-process page-cache sharing: two forked readers open the SAME
// sharded bundle (read-only MAP_SHARED file mappings), answer the same
// queries bit-identically, and — with both fully resident at once — their
// proportional set size (Pss, which splits pages by the number of mappers)
// sums to roughly ONE copy of the bundle while their Rss sums to two.
// That is the bundle's deployment claim: N processes serving one store
// cost one store of physical memory.
//
// Linux-only (fork + /proc/self/smaps); skipped elsewhere.

#include <gtest/gtest.h>

#ifdef __linux__

#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.h"
#include "rdf/sharded_store.h"
#include "test_util.h"
#include "util/random.h"

namespace specqp {
namespace {

namespace fs = std::filesystem;

// FNV-1a over the rows of a top-k answer: bindings plus raw score bits.
uint64_t FoldRows(uint64_t h, const std::vector<ScoredRow>& rows) {
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 0x100000001B3ULL;
  };
  mix(rows.size());
  for (const ScoredRow& row : rows) {
    for (const TermId id : row.bindings) mix(id);
    uint64_t bits = 0;
    std::memcpy(&bits, &row.score, sizeof(bits));
    mix(bits);
  }
  return h;
}

// Sums the Rss/Pss of this process's mappings of the bundle's shard files.
struct MappingUsage {
  uint64_t rss_kb = 0;
  uint64_t pss_kb = 0;
};

bool ReadShardMappingUsage(MappingUsage* usage) {
  std::ifstream smaps("/proc/self/smaps");
  if (!smaps.is_open()) return false;
  std::string line;
  bool in_shard_mapping = false;
  while (std::getline(smaps, line)) {
    // Mapping headers start with a lowercase-hex address range
    // ("7f..-7f.. r--s 00000000 08:01 123 /path/shard_0002.sqps");
    // attribute lines start with a capitalised name ("Pss:  1234 kB").
    const bool is_header =
        !line.empty() && ((line[0] >= '0' && line[0] <= '9') ||
                          (line[0] >= 'a' && line[0] <= 'f'));
    if (is_header) {
      in_shard_mapping = line.find("shard_") != std::string::npos &&
                         line.find(".sqps") != std::string::npos;
      continue;
    }
    if (!in_shard_mapping) continue;
    unsigned long kb = 0;
    if (std::sscanf(line.c_str(), "Rss: %lu kB", &kb) == 1) {
      usage->rss_kb += kb;
    } else if (std::sscanf(line.c_str(), "Pss: %lu kB", &kb) == 1) {
      usage->pss_kb += kb;
    }
  }
  return true;
}

struct ChildReport {
  uint64_t digest = 0;
  uint64_t rss_kb = 0;
  uint64_t pss_kb = 0;
};

bool WriteAll(int fd, const void* data, size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t w = write(fd, p, n);
    if (w <= 0) return false;
    p += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

bool ReadAll(int fd, void* data, size_t n) {
  char* p = static_cast<char*>(data);
  while (n > 0) {
    const ssize_t r = read(fd, p, n);
    if (r <= 0) return false;
    p += r;
    n -= static_cast<size_t>(r);
  }
  return true;
}

// The child's whole life: open the bundle with full eager verification
// (touching every mapped byte), answer the queries, then rendezvous with
// the parent so both children are resident when memory is measured.
[[noreturn]] void RunChild(const std::string& bundle_dir,
                           const RelaxationIndex& rules,
                           const std::vector<Query>& queries, int ready_fd,
                           int go_fd) {
  EngineOptions options;
  options.num_threads = 1;
  options.mmap_verify_all = true;  // eager CRC pass faults in every page
  auto opened = Engine::OpenFromPath(bundle_dir, &rules, options);
  if (!opened.ok()) _exit(3);

  uint64_t digest = 0xCBF29CE484222325ULL;
  for (const Query& query : queries) {
    const QueryResponse result =
        testing::Execute(*opened.value().engine, query, 10,
                         Strategy::kSpecQp);
    digest = FoldRows(digest, result.rows);
  }

  char byte = 'R';
  if (!WriteAll(ready_fd, &byte, 1)) _exit(4);
  if (!ReadAll(go_fd, &byte, 1)) _exit(5);  // both children now resident

  MappingUsage usage;
  if (!ReadShardMappingUsage(&usage)) _exit(6);
  ChildReport report;
  report.digest = digest;
  report.rss_kb = usage.rss_kb;
  report.pss_kb = usage.pss_kb;
  if (!WriteAll(ready_fd, &report, sizeof(report))) _exit(7);
  // Hold the mapping until the parent has BOTH reports — exiting early
  // would hand this child's share of the pages to its sibling's Pss.
  if (!ReadAll(go_fd, &byte, 1)) _exit(8);
  _exit(0);
}

TEST(SharedMappingTest, TwoProcessesShareOneCopyOfTheBundle) {
  // A store big enough that page-granular accounting noise (a few hundred
  // kB of headers, tables, and dictionary tails) is far below the bounds.
  Rng rng(1234);
  specqp::testing::RandomStoreConfig cfg;
  cfg.num_subjects = 20000;
  cfg.num_predicates = 8;
  cfg.num_objects = 2000;
  cfg.num_triples = 400000;
  const TripleStore store = specqp::testing::MakeRandomStore(&rng, cfg);
  const RelaxationIndex rules =
      specqp::testing::MakeRandomRules(&rng, store, 3);
  std::vector<Query> queries;
  for (int i = 0; i < 4; ++i) {
    queries.push_back(specqp::testing::MakeRandomStarQuery(&rng, store, 2));
  }

  const std::string dir = ::testing::TempDir() + "/shared_mapping_bundle";
  fs::remove_all(dir);
  ShardBundleOptions bundle_options;
  bundle_options.shard_count = 4;
  ASSERT_TRUE(WriteShardBundle(store, dir, bundle_options).ok());

  // Learn bytes_mapped, then drop the mapping before forking so the
  // parent doesn't become a third mapper of the shard pages.
  uint64_t bytes_mapped = 0;
  {
    auto probe = ShardedStore::Open(dir);
    ASSERT_TRUE(probe.ok()) << probe.status().ToString();
    bytes_mapped = probe.value()->bytes_mapped();
  }
  ASSERT_GT(bytes_mapped, 8u * 1024 * 1024)
      << "store too small for meaningful page accounting";

  // Two children, each with a ready (child->parent) and go (parent->child)
  // pipe.
  int ready[2][2];
  int go[2][2];
  pid_t pids[2];
  for (int c = 0; c < 2; ++c) {
    ASSERT_EQ(pipe(ready[c]), 0);
    ASSERT_EQ(pipe(go[c]), 0);
    pids[c] = fork();
    ASSERT_GE(pids[c], 0);
    if (pids[c] == 0) {
      close(ready[c][0]);
      close(go[c][1]);
      RunChild(dir, rules, queries, ready[c][1], go[c][0]);
    }
    close(ready[c][1]);
    close(go[c][0]);
  }

  // Barrier 1: both children mapped, verified, and queried.
  for (int c = 0; c < 2; ++c) {
    char byte = 0;
    ASSERT_TRUE(ReadAll(ready[c][0], &byte, 1)) << "child " << c;
    ASSERT_EQ(byte, 'R');
  }
  for (int c = 0; c < 2; ++c) {
    const char byte = 'G';
    ASSERT_TRUE(WriteAll(go[c][1], &byte, 1));
  }

  // Collect both reports while both mappings are still alive, then
  // release the children.
  ChildReport reports[2];
  for (int c = 0; c < 2; ++c) {
    ASSERT_TRUE(ReadAll(ready[c][0], &reports[c], sizeof(reports[c])));
  }
  for (int c = 0; c < 2; ++c) {
    const char byte = 'G';
    ASSERT_TRUE(WriteAll(go[c][1], &byte, 1));
    int status = 0;
    ASSERT_EQ(waitpid(pids[c], &status, 0), pids[c]);
    ASSERT_TRUE(WIFEXITED(status)) << "child " << c;
    ASSERT_EQ(WEXITSTATUS(status), 0) << "child " << c;
    close(ready[c][0]);
    close(go[c][1]);
  }

  // Identical answers from both processes.
  EXPECT_NE(reports[0].digest, 0u);
  EXPECT_EQ(reports[0].digest, reports[1].digest);

  const double mapped_kb = static_cast<double>(bytes_mapped) / 1024.0;
  const double rss_sum =
      static_cast<double>(reports[0].rss_kb + reports[1].rss_kb);
  const double pss_sum =
      static_cast<double>(reports[0].pss_kb + reports[1].pss_kb);

  // Eager verification touched every page in both children: combined Rss
  // is ~2x the bundle...
  EXPECT_GT(rss_sum, 1.6 * mapped_kb)
      << "children not fully resident; Rss " << reports[0].rss_kb << " + "
      << reports[1].rss_kb << " kB vs mapped " << mapped_kb << " kB";
  // ...while combined Pss stays near ONE copy: the mappings share the
  // page cache instead of duplicating it (the 2x-residency strawman).
  EXPECT_LT(pss_sum, 1.3 * mapped_kb)
      << "Pss " << reports[0].pss_kb << " + " << reports[1].pss_kb
      << " kB vs mapped " << mapped_kb << " kB";
  EXPECT_LT(pss_sum, 0.75 * rss_sum);
}

}  // namespace
}  // namespace specqp

#else  // !__linux__

TEST(SharedMappingTest, SkippedOffLinux) {
  GTEST_SKIP() << "fork + /proc/self/smaps are Linux-only";
}

#endif
