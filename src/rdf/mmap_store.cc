#include "rdf/mmap_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <set>

#include "rdf/mapped_fault.h"
#include "rdf/posting_list.h"
#include "util/crc32.h"
#include "util/fault_injector.h"
#include "util/string_util.h"

namespace specqp {

namespace {

// Typed view of `count` records of T starting `byte_offset` into a mapped
// section. Alignment holds by construction: the mapping is page-aligned,
// section offsets are 8-byte aligned and gapless, and every record type
// has alignof <= 8.
template <typename T>
std::span<const T> RecordSpan(const char* data, uint64_t byte_offset,
                              uint64_t count) {
  return std::span<const T>(reinterpret_cast<const T*>(data + byte_offset),
                            static_cast<size_t>(count));
}

Status Corrupt(const char* what) { return Status::Corruption(what); }

// True for the ids the format defines; the retired ids 5 and 9 and any
// future id are rejected.
bool KnownSectionId(uint32_t id) {
  switch (static_cast<v3::SectionId>(id)) {
    case v3::SectionId::kDictOffsets:
    case v3::SectionId::kDictBlob:
    case v3::SectionId::kDictSorted:
    case v3::SectionId::kTriples:
    case v3::SectionId::kPosIndex:
    case v3::SectionId::kOspIndex:
    case v3::SectionId::kPostingDir:
    case v3::SectionId::kStats:
    case v3::SectionId::kPostingBlockIndex:
    case v3::SectionId::kPostingBlocks:
      return true;
  }
  return false;
}

}  // namespace

MmapStore::~MmapStore() {
  if (map_ != nullptr) {
    UnregisterMappedRegion(fault_token_);
    ::munmap(map_, map_size_);
  }
}

const MmapStore::Section* MmapStore::FindSection(v3::SectionId id) const {
  for (size_t i = 0; i < section_count_; ++i) {
    if (sections_[i].id == id) return &sections_[i];
  }
  return nullptr;
}

Result<std::unique_ptr<MmapStore>> MmapStore::Open(const std::string& path,
                                                   const Options& options) {
  if (FaultShouldFail("store.open")) {
    return Status::IoError(
        StrFormat("injected fault: store.open for '%s'", path.c_str()));
  }
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError(StrFormat("cannot open '%s': %s", path.c_str(),
                                     std::strerror(errno)));
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const Status status = Status::IoError(
        StrFormat("cannot stat '%s': %s", path.c_str(), std::strerror(errno)));
    ::close(fd);
    return status;
  }
  const uint64_t file_size = static_cast<uint64_t>(st.st_size);
  if (file_size < sizeof(v3::FileHeader)) {
    ::close(fd);
    return Corrupt("truncated header");
  }

  std::unique_ptr<MmapStore> store(new MmapStore());
  // Read-only MAP_SHARED: the store is never written through the mapping
  // (PROT_READ), and sharing the pages means N processes serving the same
  // file — the sharded-bundle deployment shape — keep ONE copy of each
  // resident page in the page cache instead of N CoW-tracked private
  // copies (verified by the PSS accounting in core_shared_mapping_test).
  void* base =
      ::mmap(nullptr, file_size, PROT_READ, MAP_SHARED, fd, /*offset=*/0);
  ::close(fd);
  if (base == MAP_FAILED) {
    return Status::IoError(StrFormat("mmap of '%s' failed: %s", path.c_str(),
                                     std::strerror(errno)));
  }
  store->map_ = base;
  store->map_size_ = static_cast<size_t>(file_size);
  // Contain SIGBUS for the whole lifetime of the mapping: a page lost to
  // truncate-while-mapped reads back as zeros and latches mapping_faults()
  // instead of killing the process (rdf/mapped_fault.h).
  store->fault_token_ = RegisterMappedRegion(base, store->map_size_);
  const char* bytes = static_cast<const char*>(base);

  // --- header + section table (structural validation) ----------------------

  v3::FileHeader header;
  std::memcpy(&header, bytes, sizeof(header));
  if (std::memcmp(header.magic, v3::kMagic, sizeof(v3::kMagic)) != 0) {
    return Corrupt("bad magic; not a SQPSTOR3 store file");
  }
  if (header.version != v3::kFormatVersion) {
    return Status::Corruption(
        StrFormat("unsupported version %u", header.version));
  }
  if (header.file_size != file_size) {
    return Corrupt("header file size does not match the actual file");
  }
  if (header.section_count == 0 || header.section_count > v3::kMaxSections) {
    return Corrupt("implausible section count");
  }
  const uint64_t table_end = sizeof(v3::FileHeader) +
                             uint64_t{header.section_count} *
                                 sizeof(v3::SectionEntry);
  if (table_end > file_size) {
    return Corrupt("truncated section table");
  }

  const auto table = RecordSpan<v3::SectionEntry>(
      bytes, sizeof(v3::FileHeader), header.section_count);
  std::set<uint32_t> seen_ids;
  uint64_t cursor = table_end;  // sections are laid out back to back
  for (size_t i = 0; i < table.size(); ++i) {
    const v3::SectionEntry& entry = table[i];
    if (entry.flags != 0 || entry.reserved != 0) {
      return Corrupt("nonzero reserved bits in section table");
    }
    if (!KnownSectionId(entry.id)) return Corrupt("unknown section id");
    if (!seen_ids.insert(entry.id).second) {
      return Corrupt("duplicate section id");
    }
    if (entry.offset % v3::kSectionAlignment != 0 ||
        entry.length % v3::kSectionAlignment != 0) {
      return Corrupt("misaligned section offset or length");
    }
    if (entry.offset != cursor || entry.length > file_size - entry.offset) {
      return Corrupt("section offsets are not gapless ascending");
    }
    cursor = entry.offset + entry.length;
    store->sections_[i] = Section{static_cast<v3::SectionId>(entry.id),
                                  bytes + entry.offset, entry.length,
                                  entry.crc32c};
  }
  if (cursor != file_size) {
    return Corrupt("trailing bytes after the last section");
  }
  store->section_count_ = table.size();
  store->triple_count_ = header.triple_count;
  store->term_count_ = header.term_count;

  // --- cross-section length consistency -------------------------------------

  const uint64_t terms = header.term_count;
  const uint64_t triples = header.triple_count;
  const Section* dict_offsets = store->FindSection(v3::SectionId::kDictOffsets);
  const Section* dict_blob = store->FindSection(v3::SectionId::kDictBlob);
  const Section* dict_sorted = store->FindSection(v3::SectionId::kDictSorted);
  const Section* triple_sec = store->FindSection(v3::SectionId::kTriples);
  const Section* pos = store->FindSection(v3::SectionId::kPosIndex);
  const Section* osp = store->FindSection(v3::SectionId::kOspIndex);
  const Section* dir = store->FindSection(v3::SectionId::kPostingDir);
  const Section* index = store->FindSection(v3::SectionId::kPostingBlockIndex);
  const Section* blocks = store->FindSection(v3::SectionId::kPostingBlocks);
  if (dict_offsets == nullptr || dict_blob == nullptr ||
      dict_sorted == nullptr || triple_sec == nullptr || pos == nullptr ||
      osp == nullptr || dir == nullptr || index == nullptr ||
      blocks == nullptr) {
    return Corrupt("missing required section");
  }
  if (terms >= kInvalidTermId) return Corrupt("implausible term count");
  if (triples > UINT32_MAX) return Corrupt("implausible triple count");
  if (dict_offsets->length != v3::AlignUp((terms + 1) * 8)) {
    return Corrupt("dictionary offset table length mismatch");
  }
  const auto offsets = RecordSpan<uint64_t>(dict_offsets->data, 0, terms + 1);
  if (offsets[0] != 0 || offsets[terms] > dict_blob->length ||
      v3::AlignUp(offsets[terms]) != dict_blob->length) {
    return Corrupt("dictionary blob length mismatch");
  }
  if (dict_sorted->length != v3::AlignUp(terms * 4)) {
    return Corrupt("dictionary sorted-permutation length mismatch");
  }
  if (triple_sec->length != triples * sizeof(Triple)) {
    return Corrupt("triple section length mismatch");
  }
  for (const Section* perm : {pos, osp}) {
    if (perm->length != v3::AlignUp(triples * 4)) {
      return Corrupt("permutation index length mismatch");
    }
  }

  // The posting directory addresses block headers which address byte
  // ranges of the payload section. The O(blocks) geometry is pinned here
  // — gapless ascending byte ranges, full non-terminal blocks, ceilings in
  // range and non-increasing per list — so every later header read is
  // memory-safe; the O(entries) decode validation lives under the lazily
  // verified kPostingBlocks section.
  {
    if (dir->length < 8) return Corrupt("truncated posting directory");
    uint64_t count = 0;
    std::memcpy(&count, dir->data, 8);
    if (count > (dir->length - 8) / sizeof(v3::BlockPostingDirEntry) ||
        dir->length !=
            v3::AlignUp(8 + count * sizeof(v3::BlockPostingDirEntry))) {
      return Corrupt("posting directory length mismatch");
    }
    if (index->length % sizeof(PostingBlockHeader) != 0) {
      return Corrupt("posting block index length mismatch");
    }
    const uint64_t total_blocks =
        index->length / sizeof(PostingBlockHeader);
    const auto rows = RecordSpan<v3::BlockPostingDirEntry>(
        dir->data, /*byte_offset=*/8, count);
    const auto headers =
        RecordSpan<PostingBlockHeader>(index->data, 0, total_blocks);

    TermId prev = 0;
    uint64_t block_cursor = 0;
    uint64_t byte_cursor = 0;
    for (size_t i = 0; i < rows.size(); ++i) {
      const v3::BlockPostingDirEntry& row = rows[i];
      if (row.reserved != 0) {
        return Corrupt("nonzero reserved bits in posting directory");
      }
      if (row.predicate >= terms || (i > 0 && row.predicate <= prev)) {
        return Corrupt("posting directory predicates not ascending");
      }
      prev = row.predicate;
      if (row.block_begin != block_cursor ||
          row.block_count > total_blocks - block_cursor) {
        return Corrupt("posting directory block ranges not gapless");
      }
      block_cursor += row.block_count;
      if ((row.entry_count == 0) != (row.block_count == 0)) {
        return Corrupt("posting directory entry/block count mismatch");
      }
      uint64_t entries_in_row = 0;
      for (uint64_t b = 0; b < row.block_count; ++b) {
        const PostingBlockHeader& h = headers[row.block_begin + b];
        if (h.reserved != 0) {
          return Corrupt("nonzero reserved bits in posting block header");
        }
        if (h.entry_count == 0 || h.entry_count > kPostingBlockEntries) {
          return Corrupt("posting block entry count out of range");
        }
        if (b + 1 < row.block_count &&
            h.entry_count != kPostingBlockEntries) {
          return Corrupt("non-terminal posting block not full");
        }
        if (h.byte_offset != byte_cursor ||
            h.byte_length > blocks->length - byte_cursor) {
          return Corrupt("posting block byte ranges not gapless");
        }
        byte_cursor += h.byte_length;
        if (!(h.max_score >= 0.0 && h.max_score <= 1.0)) {
          return Corrupt("posting block ceiling not normalised");
        }
        if (b > 0 &&
            headers[row.block_begin + b - 1].max_score < h.max_score) {
          return Corrupt("posting block ceilings not non-increasing");
        }
        if (h.min_id > h.max_id || h.max_id >= triples) {
          return Corrupt("posting block id range out of bounds");
        }
        entries_in_row += h.entry_count;
      }
      if (entries_in_row != row.entry_count) {
        return Corrupt("posting directory entry count mismatch");
      }
    }
    if (block_cursor != total_blocks) {
      return Corrupt("unreferenced posting blocks");
    }
    if (v3::AlignUp(byte_cursor) != blocks->length) {
      return Corrupt("posting block payload length mismatch");
    }
    store->block_postings_.directory = rows;
    store->block_postings_.headers = headers;
    store->block_postings_.payload = RecordSpan<uint8_t>(
        blocks->data, 0, byte_cursor);
  }

  const Section* stats = store->FindSection(v3::SectionId::kStats);
  if (stats != nullptr) {
    if (stats->length < 16) return Corrupt("truncated statistics snapshot");
    double head_fraction = 0.0;
    uint64_t count = 0;
    std::memcpy(&head_fraction, stats->data, 8);
    std::memcpy(&count, stats->data + 8, 8);
    // Bound the count before the multiply below can wrap.
    if (count > (stats->length - 16) / sizeof(v3::StatsEntry) ||
        stats->length != v3::AlignUp(16 + count * sizeof(v3::StatsEntry))) {
      return Corrupt("statistics snapshot length mismatch");
    }
    store->stats_head_fraction_ = head_fraction;
    store->stats_entries_ =
        RecordSpan<v3::StatsEntry>(stats->data, /*byte_offset=*/16, count);
  }

  // --- assemble the zero-copy views -----------------------------------------

  Dictionary dict = Dictionary::FromView(
      offsets, dict_blob->data, offsets[terms],
      RecordSpan<uint32_t>(dict_sorted->data, 0, terms));
  store->synthesised_spo_.resize(triples);
  for (uint64_t i = 0; i < triples; ++i) {
    store->synthesised_spo_[i] = static_cast<uint32_t>(i);
  }
  store->store_ = TripleStore::FromView(
      std::move(dict), RecordSpan<Triple>(triple_sec->data, 0, triples),
      store->synthesised_spo_, RecordSpan<uint32_t>(pos->data, 0, triples),
      RecordSpan<uint32_t>(osp->data, 0, triples), &store->block_postings_);

  if (options.verify == Verify::kEager) {
    const Status verified = store->VerifyAllSections();
    if (!verified.ok()) return verified;
  }
  return store;
}

Dictionary MmapStore::NewDictionaryView() const {
  const Section* offsets = FindSection(v3::SectionId::kDictOffsets);
  const Section* blob = FindSection(v3::SectionId::kDictBlob);
  const Section* sorted = FindSection(v3::SectionId::kDictSorted);
  SPECQP_CHECK(offsets != nullptr && blob != nullptr && sorted != nullptr);
  const auto offset_span =
      RecordSpan<uint64_t>(offsets->data, 0, term_count_ + 1);
  return Dictionary::FromView(
      offset_span, blob->data, offset_span[term_count_],
      RecordSpan<uint32_t>(sorted->data, 0, term_count_));
}

Status MmapStore::ValidateSectionValues(const Section& section) const {
  // Besides range checks, this enforces the ORDERING invariants binary
  // search and the rank-join bound logic rely on — a crafted file with
  // self-consistent CRCs but an unsorted permutation would otherwise
  // produce silently wrong answers while every Status stays Ok.
  switch (section.id) {
    case v3::SectionId::kDictOffsets: {
      // Monotonicity makes every Name(id) slice well-formed; the first
      // and last entries were already pinned structurally at Open.
      const auto offsets = RecordSpan<uint64_t>(section.data, 0,
                                                term_count_ + 1);
      for (size_t i = 1; i < offsets.size(); ++i) {
        if (offsets[i - 1] > offsets[i]) {
          return Corrupt("dictionary offsets not monotonic");
        }
      }
      return Status::Ok();
    }
    case v3::SectionId::kDictSorted: {
      // Strictly ascending by term bytes: implies unique terms and a
      // well-formed binary-search order. Uses the mapped dictionary
      // view, whose offsets section is validated before this one on the
      // eager/metadata paths (Name stays memory-safe regardless).
      const auto ids = RecordSpan<uint32_t>(section.data, 0, term_count_);
      for (size_t i = 0; i < ids.size(); ++i) {
        if (ids[i] >= term_count_) {
          return Corrupt("sorted term id out of range");
        }
        if (i > 0 && store_.dict().Name(ids[i - 1]) >=
                         store_.dict().Name(ids[i])) {
          return Corrupt("dictionary permutation not sorted/unique");
        }
      }
      return Status::Ok();
    }
    case v3::SectionId::kTriples: {
      const auto triples = RecordSpan<Triple>(section.data, 0, triple_count_);
      for (size_t i = 0; i < triples.size(); ++i) {
        const Triple& t = triples[i];
        if (t.s >= term_count_ || t.p >= term_count_ || t.o >= term_count_) {
          return Corrupt("triple references unknown term id");
        }
        if (!(t.score >= 0.0)) return Corrupt("triple has invalid score");
        if (i > 0 && !OrderSpo()(triples[i - 1], t)) {
          return Corrupt("triples not in strict SPO order");
        }
      }
      return Status::Ok();
    }
    case v3::SectionId::kPosIndex:
    case v3::SectionId::kOspIndex: {
      // Range plus strict ordering under the section's comparator. Over
      // unique triples, strict order also implies the indexes are
      // distinct, i.e. a true permutation.
      const auto perm = RecordSpan<uint32_t>(section.data, 0, triple_count_);
      const auto triples = store_.triples();
      auto in_order = [&](uint32_t a, uint32_t b) {
        return section.id == v3::SectionId::kPosIndex
                   ? OrderPos()(triples[a], triples[b])
                   : OrderOsp()(triples[a], triples[b]);
      };
      for (size_t i = 0; i < perm.size(); ++i) {
        if (perm[i] >= triple_count_) {
          return Corrupt("permutation index out of range");
        }
        if (i > 0 && !in_order(perm[i - 1], perm[i])) {
          return Corrupt("permutation index not in index order");
        }
      }
      return Status::Ok();
    }
    case v3::SectionId::kPostingBlocks: {
      // Full decode of every block: exact varint byte consumption, ids in
      // range, scores normalised and non-increasing, header agreement
      // (first score bit-equal to max_score, exact min/max id range) —
      // see DecodePostingBlock. Plus continuity ACROSS block boundaries,
      // which single-block decoding cannot see: each list must descend by
      // (score, -triple_index) from the last entry of one block to the
      // first of the next. This is the check that rejects a file whose
      // ceilings are self-consistent but whose contents disagree — the
      // skip logic would otherwise silently drop live entries.
      DecodedPostingBlock decoded;
      for (const v3::BlockPostingDirEntry& row : block_postings_.directory) {
        PostingEntry prev_last{};
        for (uint64_t b = 0; b < row.block_count; ++b) {
          const PostingBlockHeader& h =
              block_postings_.headers[row.block_begin + b];
          const Status status = DecodePostingBlock(
              h, block_postings_.payload,
              static_cast<uint32_t>(triple_count_), &decoded);
          if (!status.ok()) return status;
          const PostingEntry& first = decoded.entries.front();
          if (b > 0 && (prev_last.score < first.score ||
                        (prev_last.score == first.score &&
                         prev_last.triple_index >= first.triple_index))) {
            return Corrupt("posting blocks not sorted across boundaries");
          }
          prev_last = decoded.entries.back();
        }
      }
      return Status::Ok();
    }
    case v3::SectionId::kStats: {
      // Shape was checked at Open. The values feed the planner's
      // two-bucket histograms, whose constructors CHECK-fail on NaN knots
      // and negative densities, so every row must describe a real
      // PatternStats: a finite boundary score in [0, 1] and finite
      // cumulative masses 0 <= s_r <= s_m.
      if (!(stats_head_fraction_ > 0.0 && stats_head_fraction_ < 1.0)) {
        return Corrupt("statistics head fraction outside (0, 1)");
      }
      for (const v3::StatsEntry& row : stats_entries_) {
        if (row.reserved != 0) {
          return Corrupt("statistics row reserved word not zero");
        }
        if (!std::isfinite(row.sigma_r) || !std::isfinite(row.s_r) ||
            !std::isfinite(row.s_m)) {
          return Corrupt("statistics row holds a non-finite value");
        }
        if (row.sigma_r < 0.0 || row.sigma_r > 1.0) {
          return Corrupt("statistics boundary score outside [0, 1]");
        }
        if (row.s_r < 0.0 || row.s_r > row.s_m) {
          return Corrupt("statistics masses not 0 <= s_r <= s_m");
        }
      }
      return Status::Ok();
    }
    default:
      // kDictBlob is free-form bytes; kPostingDir rows were validated
      // structurally at Open (their block runs are covered under
      // kPostingBlocks); kPostingBlockIndex geometry was pinned at Open
      // and its content agreement is covered by the kPostingBlocks decode
      // pass.
      return Status::Ok();
  }
}

Status MmapStore::VerifySectionIndex(size_t index) {
  const Section& section = sections_[index];
  uint8_t state = verified_[index].load(std::memory_order_acquire);
  if (state == 0) {
    // kDictSorted's value check compares term names, which dereference
    // the offset table — make sure that table is sound first (memoised,
    // O(terms); keeps Name() from CHECK-failing on a crafted file even
    // when sections are verified out of file order).
    if (section.id == v3::SectionId::kDictSorted) {
      const Status offsets = VerifySection(v3::SectionId::kDictOffsets);
      if (!offsets.ok()) {
        verified_[index].store(2, std::memory_order_release);
        return Status::Corruption(
            StrFormat("section %u failed checksum or value validation",
                      static_cast<uint32_t>(section.id)));
      }
    }
    const bool ok = Crc32c(section.data, section.length) == section.crc32c &&
                    ValidateSectionValues(section).ok();
    state = ok ? 1 : 2;
    // Concurrent verifiers compute the same verdict; last store wins.
    verified_[index].store(state, std::memory_order_release);
  }
  if (state != 1) {
    return Status::Corruption(
        StrFormat("section %u failed checksum or value validation",
                  static_cast<uint32_t>(section.id)));
  }
  return Status::Ok();
}

Status MmapStore::VerifySection(v3::SectionId id) {
  for (size_t i = 0; i < section_count_; ++i) {
    if (sections_[i].id == id) return VerifySectionIndex(i);
  }
  return Status::Ok();  // absent (optional) section: nothing to verify
}

Status MmapStore::VerifyAllSections() {
  for (size_t i = 0; i < section_count_; ++i) {
    const Status status = VerifySectionIndex(i);
    if (!status.ok()) return status;
  }
  return Status::Ok();
}

Status MmapStore::VerifyMetadataSections() {
  for (const v3::SectionId id :
       {v3::SectionId::kDictOffsets, v3::SectionId::kDictBlob,
        v3::SectionId::kDictSorted, v3::SectionId::kPostingDir,
        v3::SectionId::kStats}) {
    const Status status = VerifySection(id);
    if (!status.ok()) return status;
  }
  return Status::Ok();
}

}  // namespace specqp
