#ifndef SPECQP_RDF_MMAP_STORE_H_
#define SPECQP_RDF_MMAP_STORE_H_

#include <array>
#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "rdf/mapped_fault.h"
#include "rdf/store_format.h"
#include "rdf/triple_store.h"
#include "util/result.h"
#include "util/status.h"

namespace specqp {

// Zero-copy reader for store format v3 ("SQPSTOR3", docs/FORMATS.md).
//
// Open() memory-maps the file read-only, validates the header and section
// table structurally (magic, version, exact file size, section ids,
// 8-byte alignment, gapless back-to-back layout, cross-section length
// consistency, and the block-header geometry — gapless byte ranges, full
// non-terminal blocks, per-list ceilings non-increasing), and builds a
// read-only TripleStore view whose triple array, permutation indexes,
// dictionary, and per-predicate posting lists are spans straight into the
// mapping — no per-triple parsing, no index build, no string copies. Open
// cost is O(sections + blocks) plus one sequential fill of the
// synthesised identity SPO view. Posting lists stay encoded in the
// mapping; BlockIterator decodes them block-by-block on first touch.
//
// Section payload CRC-32C checks are *lazy* by default: Open trusts the
// structural validation and defers checksums until VerifySection /
// VerifyAllSections is called (results are memoised, thread-safe).
// Verify::kEager checks every section before Open returns — this is what
// LoadStore uses, and what callers handling untrusted files should use.
//
// The MmapStore owns the mapping; the TripleStore view (and every
// PostingList view handed out through the posting directory) is valid
// only while the MmapStore is alive. Engine::OpenFromPath ties these
// lifetimes together.
class MmapStore {
 public:
  enum class Verify {
    kLazy,   // structural checks only; CRCs on demand
    kEager,  // every section CRC-verified before Open returns
  };
  struct Options {
    // Constructor instead of a default member initializer so Options can
    // be a default argument of Open below (NSDMIs of a nested class are
    // unusable before the enclosing class is complete).
    Options() : verify(Verify::kLazy) {}
    Verify verify;
  };

  [[nodiscard]] static Result<std::unique_ptr<MmapStore>> Open(
      const std::string& path, const Options& options = Options());

  ~MmapStore();

  MmapStore(const MmapStore&) = delete;
  MmapStore& operator=(const MmapStore&) = delete;

  // The zero-copy store view (finalized, read-only).
  const TripleStore& store() const { return store_; }

  // A fresh zero-copy Dictionary view over this file's mapped dictionary
  // sections (the same spans store().dict() wraps). Dictionary is
  // move-only, so facades that need their own instance — ShardedStore
  // builds its merged view over shard 0's dictionary — re-make one here
  // instead of copying. Valid only while this MmapStore is alive.
  Dictionary NewDictionaryView() const;

  // Total bytes of the mapping (the file size).
  size_t bytes_mapped() const { return map_size_; }

  // Base address of the mapping (for fault-simulation test hooks).
  const void* mapped_base() const { return map_; }

  // Pages of this mapping the SIGBUS containment handler has zero-filled
  // (rdf/mapped_fault.h). Nonzero means reads through this store may have
  // observed zeros instead of file bytes — the data is no longer
  // trustworthy and the shard should be quarantined. Cheap (one relaxed
  // atomic load); polled by ShardedStore between queries and after each
  // scatter pass.
  uint64_t mapping_faults() const { return MappedRegionFaults(fault_token_); }

  // Statistics snapshot (section kStats); empty when the file has none.
  bool has_stats() const { return !stats_entries_.empty(); }
  double stats_head_fraction() const { return stats_head_fraction_; }
  std::span<const v3::StatsEntry> stats_entries() const {
    return stats_entries_;
  }

  // Verifies one section, memoised: the first call pays a CRC-32C pass
  // over the payload plus a value-range pass (dictionary offsets
  // monotonic, permutation/posting/triple ids within bounds), later
  // calls return the cached verdict. Unknown-to-this-file ids return Ok
  // (nothing to verify). Thread-safe. A verified section can be
  // dereferenced without CHECK-failures even on a crafted file; an
  // UNverified section of a lazily opened store is trusted — use
  // Verify::kEager (or VerifyAllSections) for untrusted input.
  [[nodiscard]] Status VerifySection(v3::SectionId id);

  // Verifies every section in the file (memoised per section).
  [[nodiscard]] Status VerifyAllSections();

  // Verifies only the small metadata sections the reader dereferences
  // eagerly (the whole dictionary, posting directory, statistics
  // snapshot) — the O(triples) bulk sections stay lazy. This is the
  // default integrity level of Engine::OpenFromPath.
  [[nodiscard]] Status VerifyMetadataSections();

 private:
  MmapStore() = default;

  struct Section {
    v3::SectionId id;
    const char* data = nullptr;
    uint64_t length = 0;  // stored (padded) length
    uint32_t crc32c = 0;
  };

  const Section* FindSection(v3::SectionId id) const;
  [[nodiscard]] Status VerifySectionIndex(size_t index);
  // Value-range validation behind VerifySection (checksums alone cannot
  // reject crafted files, whose CRCs are self-consistent).
  [[nodiscard]] Status ValidateSectionValues(const Section& section) const;

  void* map_ = nullptr;
  size_t map_size_ = 0;
  int fault_token_ = -1;  // SIGBUS containment registry slot
  uint64_t triple_count_ = 0;
  uint64_t term_count_ = 0;

  std::array<Section, v3::kMaxSections> sections_{};
  size_t section_count_ = 0;
  // 0 = unverified, 1 = CRC ok, 2 = CRC mismatch.
  std::array<std::atomic<uint8_t>, v3::kMaxSections> verified_{};

  // The file stores no SPO permutation (it is always the identity over
  // the SPO-sorted triple array); the view synthesises it here at open.
  std::vector<uint32_t> synthesised_spo_;

  MappedBlockPostings block_postings_{};
  TripleStore store_;

  double stats_head_fraction_ = 0.0;
  std::span<const v3::StatsEntry> stats_entries_;
};

}  // namespace specqp

#endif  // SPECQP_RDF_MMAP_STORE_H_
