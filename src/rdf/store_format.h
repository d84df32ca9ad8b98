#ifndef SPECQP_RDF_STORE_FORMAT_H_
#define SPECQP_RDF_STORE_FORMAT_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

#include "rdf/triple.h"

namespace specqp {

// On-disk layout of store format v3 ("SQPSTOR3"), the only store file
// format.
//
// The normative byte-level specification lives in docs/FORMATS.md; this
// header defines the record structs shared by the writer (rdf/store_io.cc)
// and the zero-copy reader (rdf/mmap_store.cc), and the static_asserts
// that make casting mapped bytes to these structs legal on this target.
//
// Layout discipline (docs/FORMATS.md §SQPSTOR3):
//   * little-endian, asserted at build time;
//   * every section payload starts at an 8-byte-aligned offset and its
//     stored length is padded up to a multiple of 8 with zero bytes that
//     ARE covered by the section CRC — the file has no unprotected gaps;
//   * sections are laid out back to back in section-table order, so
//     entry[i].offset == end of entry[i-1] and the last section ends at
//     header.file_size;
//   * all struct padding bytes are written as zero.
//
// Posting lists are block-compressed (rdf/posting_blocks.h):
//
//   * kPostingDir holds BlockPostingDirEntry rows (one per predicate)
//     addressing a contiguous run of block headers;
//   * kPostingBlockIndex is a flat PostingBlockHeader array for all
//     predicates, in directory order;
//   * kPostingBlocks is the concatenated delta-encoded block payload
//     (padded to 8 bytes like every section).
namespace v3 {

inline constexpr char kMagic[8] = {'S', 'Q', 'P', 'S', 'T', 'O', 'R', '3'};
inline constexpr uint32_t kFormatVersion = 3;
inline constexpr uint64_t kSectionAlignment = 8;

// Hard cap on section_count: structural sanity, not a format limit we
// expect to approach (the format defines ten section kinds).
inline constexpr uint32_t kMaxSections = 64;

// Ids 5 and 9 are retired (a stored identity SPO permutation and flat
// posting entries, written by the retired SQPSTOR2 layout); readers
// reject them like any other unknown id.
enum class SectionId : uint32_t {
  kDictOffsets = 1,         // u64[term_count + 1], byte offsets into kDictBlob
  kDictBlob = 2,            // concatenated term bytes
  kDictSorted = 3,          // u32[term_count], term ids in lexicographic order
  kTriples = 4,             // TripleRecord[triple_count], SPO order
  kPosIndex = 6,            // u32[triple_count]
  kOspIndex = 7,            // u32[triple_count]
  kPostingDir = 8,          // u64 count, then BlockPostingDirEntry[count]
  kStats = 10,              // f64 head_fraction, u64 count, StatsEntry[count]
  kPostingBlockIndex = 11,  // PostingBlockHeader[*], referenced by kPostingDir
  kPostingBlocks = 12,      // delta-encoded block payload bytes
};

// Fixed 40-byte file header at offset 0, immediately followed by the
// section table.
struct FileHeader {
  char magic[8];
  uint32_t version;
  uint32_t section_count;
  uint64_t file_size;  // must equal the actual file size
  uint64_t triple_count;
  uint64_t term_count;
};
static_assert(sizeof(FileHeader) == 40);

// One section-table row. `flags` and `reserved` must be zero (validated on
// open so no table byte escapes verification).
struct SectionEntry {
  uint32_t id;
  uint32_t flags;
  uint64_t offset;  // from file start; 8-byte aligned
  uint64_t length;  // stored (padded) payload length in bytes
  uint32_t crc32c;  // CRC-32C of payload[offset, offset + length)
  uint32_t reserved;
};
static_assert(sizeof(SectionEntry) == 32);

// kStats row: one memoised stats::PatternStats under the snapshot's
// head_fraction, keyed by PatternKey (kInvalidTermId in free slots).
struct StatsEntry {
  uint32_t s;
  uint32_t p;
  uint32_t o;
  uint32_t reserved;  // zero
  uint64_t m;
  double sigma_r;
  double s_r;
  double s_m;
};
static_assert(sizeof(StatsEntry) == 48);

// The in-memory Triple struct doubles as the on-disk record, so the
// mapped triple section can be used through std::span with no
// per-record decoding. The writer zeroes its padding bytes.
static_assert(std::endian::native == std::endian::little,
              "the store format is little-endian");
static_assert(sizeof(Triple) == 24 && alignof(Triple) == 8 &&
              offsetof(Triple, s) == 0 && offsetof(Triple, p) == 4 &&
              offsetof(Triple, o) == 8 && offsetof(Triple, score) == 16);
static_assert(sizeof(double) == 8, "store format assumes 8-byte doubles");

inline uint64_t AlignUp(uint64_t n) {
  return (n + kSectionAlignment - 1) & ~(kSectionAlignment - 1);
}

// kPostingDir row: the posting list of (?s <predicate> ?o), stored as
// blocks [block_begin, block_begin + block_count) of kPostingBlockIndex,
// holding entry_count entries in total, descending by
// (normalised score, -triple_index) across block boundaries.
struct BlockPostingDirEntry {
  uint32_t predicate;
  uint32_t reserved;  // zero
  uint64_t block_begin;
  uint64_t block_count;
  uint64_t entry_count;
  double max_raw_score;
};
static_assert(sizeof(BlockPostingDirEntry) == 40);

}  // namespace v3

// On-disk layout of a sharded store bundle ("SQPBNDL1").
//
// A bundle is a directory holding one manifest file (kManifestFileName)
// plus shard_count complete, self-contained store files named
// shard_0000.sqps, shard_0001.sqps, ... — each an ordinary SQPSTOR3
// file carrying the FULL dictionary (identical intern order in every
// shard, enforced via the dictionary section CRCs) and the hash-assigned
// subset of the triples, locally SPO-sorted with its own permutation
// indexes and posting directory. Triples are assigned to shards by
// hashing the subject (HashScheme::kSubject, the default) or the
// predicate (kPredicate); the scheme is recorded in the manifest.
//
// Manifest layout (little-endian, like the store files):
//
//   ManifestHeader                       40 bytes
//   ManifestShardEntry[shard_count]      32 bytes each, shard_id == index
//   uint32_t crc32c                      over all preceding bytes
//
// Each shard entry pins the shard file's exact size, triple count, a
// CRC-32C digest of the file's header + section table (which itself
// holds every section's CRC, so the digest transitively covers the whole
// file), and a digest of the three dictionary-section CRCs (equal across
// all shards of a well-formed bundle). The reader (rdf/sharded_store.h)
// returns Status::Corruption for any disagreement and never CHECK-fails
// on untrusted bytes.
namespace bundle {

inline constexpr char kMagic[8] = {'S', 'Q', 'P', 'B', 'N', 'D', 'L', '1'};
inline constexpr uint32_t kFormatVersion = 1;
inline constexpr char kManifestFileName[] = "manifest.sqpb";

// Structural sanity cap, far above any deployment we expect.
inline constexpr uint32_t kMaxShards = 1024;

enum class HashScheme : uint32_t {
  kSubject = 1,    // shard on the triple's subject (the default)
  kPredicate = 2,  // shard on the predicate (co-locates posting lists)
};

struct ManifestHeader {
  char magic[8];
  uint32_t version;        // kFormatVersion
  uint32_t shard_count;    // in [1, kMaxShards]
  uint32_t hash_scheme;    // HashScheme
  uint32_t store_format;   // per-shard file format: 3
  uint64_t total_triples;  // sum of the shard triple counts
  uint64_t term_count;     // shared dictionary size (identical per shard)
};
static_assert(sizeof(ManifestHeader) == 40);

struct ManifestShardEntry {
  uint32_t shard_id;       // must equal the entry's index
  uint32_t reserved;       // zero
  uint64_t file_size;      // exact size of shard_<id>.sqps in bytes
  uint64_t triple_count;   // the shard file's header triple count
  uint32_t table_crc32c;   // CRC-32C of the file's header + section table
  uint32_t dict_crc32c;    // CRC-32C over the 3 dictionary section CRCs
};
static_assert(sizeof(ManifestShardEntry) == 32);

}  // namespace bundle

struct PostingBlockHeader;  // rdf/posting_blocks.h

// Block posting directory of a mapped v3 file: per-predicate block runs
// over the shared header array and payload bytes. Owned by MmapStore and
// surfaced through TripleStore::mapped_block_postings(); BuildPostingList
// wraps a row in a PostingBlockSource without touching the payload.
struct MappedBlockPostings {
  std::span<const v3::BlockPostingDirEntry> directory;  // ascending predicate
  std::span<const PostingBlockHeader> headers;  // kPostingBlockIndex payload
  std::span<const uint8_t> payload;             // kPostingBlocks payload

  // The directory row for `predicate`, or nullptr when absent.
  const v3::BlockPostingDirEntry* Find(TermId predicate) const;
};

}  // namespace specqp

#endif  // SPECQP_RDF_STORE_FORMAT_H_
