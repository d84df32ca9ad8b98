#ifndef SPECQP_RDF_STORE_IO_H_
#define SPECQP_RDF_STORE_IO_H_

#include <string>
#include <vector>

#include "rdf/store_format.h"
#include "rdf/triple_store.h"
#include "util/result.h"
#include "util/status.h"

namespace specqp {

// Serialised store files: format v3 ("SQPSTOR3"), whose byte-level
// specification lives in docs/FORMATS.md; the shared record structs live
// in rdf/store_format.h.
//
// Public API contract:
//
//  * SaveStore writes a section-table layout whose sections (dictionary,
//    triple array, permutation indexes, per-predicate block-compressed
//    posting directory, optional statistics snapshot) can be
//    memory-mapped and used in place by MmapStore (rdf/mmap_store.h) with
//    no per-triple parsing. Posting lists are stored block-compressed
//    (rdf/posting_blocks.h) and decoded block-by-block on demand.
//    Requires a finalized store; deterministic byte-for-byte for a given
//    store + options.
//  * LoadStore opens the file with MmapStore under Verify::kEager (every
//    section checksum and value check) and materialises an owned,
//    finalized TripleStore from it. For the O(ms) zero-copy path use
//    MmapStore::Open instead.
//
// All load paths return Status::Corruption on malformed input (bad magic,
// a retired format version, truncation, checksum mismatch, misaligned or
// overlapping sections, out-of-range ids) and never CHECK-fail on
// untrusted bytes.

struct SaveStoreOptions {
  // Optional statistics snapshot (section kStats): the memoised
  // PatternStats rows of a StatisticsCatalog, exported via
  // StatisticsCatalog::Snapshot(). Rows are written sorted by key;
  // head_fraction records the 80/20 boundary they were computed under so
  // loaders only reuse them for a matching engine configuration.
  std::vector<v3::StatsEntry> stats;
  double stats_head_fraction = 0.0;
};

[[nodiscard]] Status SaveStore(const TripleStore& store, const std::string& path,
                 const SaveStoreOptions& options = {});

[[nodiscard]] Result<TripleStore> LoadStore(const std::string& path);

}  // namespace specqp

#endif  // SPECQP_RDF_STORE_IO_H_
