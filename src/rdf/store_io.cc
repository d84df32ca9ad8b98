#include "rdf/store_io.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>

#include "rdf/mmap_store.h"
#include "rdf/posting_list.h"
#include "util/crc32.h"
#include "util/string_util.h"

namespace specqp {

namespace {

void AppendU16(std::string* buf, uint16_t v) {
  char tmp[2];
  std::memcpy(tmp, &v, 2);
  buf->append(tmp, 2);
}

void AppendU32(std::string* buf, uint32_t v) {
  char tmp[4];
  std::memcpy(tmp, &v, 4);
  buf->append(tmp, 4);
}

void AppendU64(std::string* buf, uint64_t v) {
  char tmp[8];
  std::memcpy(tmp, &v, 8);
  buf->append(tmp, 8);
}

void AppendF64(std::string* buf, double v) {
  char tmp[8];
  std::memcpy(tmp, &v, 8);
  buf->append(tmp, 8);
}

// One serialised section: payload padded to the section alignment with
// zero bytes that are covered by the CRC, so the written file has no
// unprotected gaps (docs/FORMATS.md).
struct SectionBuf {
  v3::SectionId id;
  std::string payload;
};

void PadSection(std::string* payload) {
  while (payload->size() % v3::kSectionAlignment != 0) {
    payload->push_back('\0');
  }
}

// Permutation of [0, n) ordering `triples` by the given comparator; equals
// the index TripleStore::Finalize builds because finalized stores have no
// duplicate (s,p,o) and the orders are total.
template <typename Order>
std::vector<uint32_t> SortedPermutation(std::span<const Triple> triples) {
  std::vector<uint32_t> perm(triples.size());
  for (uint32_t i = 0; i < perm.size(); ++i) perm[i] = i;
  std::sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
    return Order()(triples[a], triples[b]);
  });
  return perm;
}

void AppendIndexSection(std::vector<SectionBuf>* sections, v3::SectionId id,
                        const std::vector<uint32_t>& perm) {
  SectionBuf section{id, {}};
  section.payload.reserve(perm.size() * 4 + v3::kSectionAlignment);
  for (uint32_t v : perm) AppendU32(&section.payload, v);
  sections->push_back(std::move(section));
}

Status WriteSections(const std::string& path, std::vector<SectionBuf> sections,
                     uint64_t triple_count, uint64_t term_count) {
  for (SectionBuf& section : sections) PadSection(&section.payload);

  v3::FileHeader header{};
  std::memcpy(header.magic, v3::kMagic, sizeof(v3::kMagic));
  header.version = v3::kFormatVersion;
  header.section_count = static_cast<uint32_t>(sections.size());
  header.triple_count = triple_count;
  header.term_count = term_count;

  std::vector<v3::SectionEntry> table(sections.size());
  uint64_t cursor =
      sizeof(v3::FileHeader) + sections.size() * sizeof(v3::SectionEntry);
  for (size_t i = 0; i < sections.size(); ++i) {
    table[i] = v3::SectionEntry{
        static_cast<uint32_t>(sections[i].id), /*flags=*/0, cursor,
        sections[i].payload.size(),
        Crc32c(sections[i].payload.data(), sections[i].payload.size()),
        /*reserved=*/0};
    cursor += sections[i].payload.size();
  }
  header.file_size = cursor;

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IoError(
        StrFormat("cannot open '%s' for writing", path.c_str()));
  }
  out.write(reinterpret_cast<const char*>(&header), sizeof(header));
  out.write(reinterpret_cast<const char*>(table.data()),
            static_cast<std::streamsize>(table.size() * sizeof(table[0])));
  for (const SectionBuf& section : sections) {
    out.write(section.payload.data(),
              static_cast<std::streamsize>(section.payload.size()));
  }
  out.flush();
  if (!out) {
    return Status::IoError(StrFormat("short write to '%s'", path.c_str()));
  }
  return Status::Ok();
}

// Walks a posting list through the canonical BlockIterator path so the
// writer handles flat and block-compressed lists uniformly (re-saving a
// store opened from a mapped file included).
std::vector<PostingEntry> MaterializeEntries(const PostingList& list) {
  std::vector<PostingEntry> out;
  out.reserve(list.size());
  for (BlockIterator it(&list); !it.AtEnd(); it.Advance()) {
    out.push_back(it.Entry());
  }
  return out;
}

// Materialises an owned store from a (checksum-verified) mapped file.
// The zero-copy path is MmapStore itself.
Result<TripleStore> MaterializeMapped(const MmapStore& mapped) {
  const TripleStore& view = mapped.store();
  const Dictionary& view_dict = view.dict();
  TripleStore store;
  for (TermId id = 0; id < view_dict.size(); ++id) {
    if (store.dict().Intern(view_dict.Name(id)) != id) {
      return Status::Corruption("duplicate term in dictionary section");
    }
  }
  const size_t dict_size = store.dict().size();
  for (const Triple& t : view.triples()) {
    if (t.s >= dict_size || t.p >= dict_size || t.o >= dict_size) {
      return Status::Corruption("triple references unknown term id");
    }
    if (!(t.score >= 0.0)) {
      return Status::Corruption("triple has invalid score");
    }
    store.AddEncoded(t.s, t.p, t.o, t.score);
  }
  store.Finalize();
  return store;
}

}  // namespace

Status SaveStore(const TripleStore& store, const std::string& path,
                 const SaveStoreOptions& options) {
  if (!store.finalized()) {
    return Status::FailedPrecondition("SaveStore requires a finalized store");
  }
  if (store.is_sharded()) {
    // A sharded facade has no contiguous triple array to serialise — its
    // shard files are already on disk (rdf/sharded_store.h owns them).
    return Status::FailedPrecondition(
        "SaveStore cannot serialise a sharded store facade");
  }
  const Dictionary& dict = store.dict();
  const std::span<const Triple> triples = store.triples();
  std::vector<SectionBuf> sections;

  // Dictionary: offset table, blob, lexicographic permutation.
  {
    SectionBuf offsets{v3::SectionId::kDictOffsets, {}};
    SectionBuf blob{v3::SectionId::kDictBlob, {}};
    uint64_t cursor = 0;
    AppendU64(&offsets.payload, 0);
    for (TermId id = 0; id < dict.size(); ++id) {
      const std::string_view name = dict.Name(id);
      cursor += name.size();
      AppendU64(&offsets.payload, cursor);
      blob.payload.append(name);
    }
    SectionBuf sorted{v3::SectionId::kDictSorted, {}};
    std::vector<uint32_t> perm(dict.size());
    for (uint32_t i = 0; i < perm.size(); ++i) perm[i] = i;
    std::sort(perm.begin(), perm.end(), [&dict](uint32_t a, uint32_t b) {
      return dict.Name(a) < dict.Name(b);
    });
    for (uint32_t id : perm) AppendU32(&sorted.payload, id);
    sections.push_back(std::move(offsets));
    sections.push_back(std::move(blob));
    sections.push_back(std::move(sorted));
  }

  // Triple array (SPO order, padding bytes zeroed) + permutation indexes.
  {
    SectionBuf section{v3::SectionId::kTriples, {}};
    section.payload.reserve(triples.size() * sizeof(Triple));
    for (const Triple& t : triples) {
      AppendU32(&section.payload, t.s);
      AppendU32(&section.payload, t.p);
      AppendU32(&section.payload, t.o);
      AppendU32(&section.payload, 0);  // struct padding, CRC-covered
      AppendF64(&section.payload, t.score);
    }
    sections.push_back(std::move(section));

    // The SPO permutation of an SPO-sorted triple array is the identity,
    // so the file stores none; readers synthesise the view.
    AppendIndexSection(&sections, v3::SectionId::kPosIndex,
                       SortedPermutation<OrderPos>(triples));
    AppendIndexSection(&sections, v3::SectionId::kOspIndex,
                       SortedPermutation<OrderOsp>(triples));
  }

  // Per-predicate posting directory: every (?s <p> ?o) list, normalised,
  // pre-sorted, and block-compressed with a shared header array
  // (rdf/posting_blocks.h), so mapped stores serve them zero-copy.
  {
    std::vector<TermId> predicates;
    predicates.reserve(triples.size());
    for (const Triple& t : triples) predicates.push_back(t.p);
    std::sort(predicates.begin(), predicates.end());
    predicates.erase(std::unique(predicates.begin(), predicates.end()),
                     predicates.end());

    SectionBuf dir{v3::SectionId::kPostingDir, {}};
    SectionBuf index{v3::SectionId::kPostingBlockIndex, {}};
    SectionBuf blocks{v3::SectionId::kPostingBlocks, {}};
    AppendU64(&dir.payload, predicates.size());
    uint64_t block_cursor = 0;
    for (TermId p : predicates) {
      const PostingList list = BuildPostingList(
          store, PatternKey{kInvalidTermId, p, kInvalidTermId});
      const std::vector<PostingEntry> flat = MaterializeEntries(list);
      const EncodedPostingBlocks encoded =
          EncodePostingBlocks(flat.data(), flat.size());
      AppendU32(&dir.payload, p);
      AppendU32(&dir.payload, 0);  // reserved
      AppendU64(&dir.payload, block_cursor);
      AppendU64(&dir.payload, encoded.headers.size());
      AppendU64(&dir.payload, flat.size());
      AppendF64(&dir.payload, list.max_raw_score);
      // The encoder's offsets are list-local; rebase onto this file's
      // shared payload section.
      const uint64_t payload_base = blocks.payload.size();
      for (const PostingBlockHeader& h : encoded.headers) {
        AppendU64(&index.payload, h.byte_offset + payload_base);
        AppendU32(&index.payload, h.byte_length);
        AppendU16(&index.payload, h.entry_count);
        AppendU16(&index.payload, 0);  // reserved
        AppendF64(&index.payload, h.max_score);
        AppendU32(&index.payload, h.min_id);
        AppendU32(&index.payload, h.max_id);
      }
      blocks.payload.append(
          reinterpret_cast<const char*>(encoded.payload.data()),
          encoded.payload.size());
      block_cursor += encoded.headers.size();
    }
    sections.push_back(std::move(dir));
    sections.push_back(std::move(index));
    sections.push_back(std::move(blocks));
  }

  // Statistics snapshot.
  if (!options.stats.empty()) {
    std::vector<v3::StatsEntry> rows = options.stats;
    std::sort(rows.begin(), rows.end(),
              [](const v3::StatsEntry& a, const v3::StatsEntry& b) {
                return std::tie(a.s, a.p, a.o) < std::tie(b.s, b.p, b.o);
              });
    SectionBuf section{v3::SectionId::kStats, {}};
    AppendF64(&section.payload, options.stats_head_fraction);
    AppendU64(&section.payload, rows.size());
    for (const v3::StatsEntry& row : rows) {
      AppendU32(&section.payload, row.s);
      AppendU32(&section.payload, row.p);
      AppendU32(&section.payload, row.o);
      AppendU32(&section.payload, 0);  // reserved
      AppendU64(&section.payload, row.m);
      AppendF64(&section.payload, row.sigma_r);
      AppendF64(&section.payload, row.s_r);
      AppendF64(&section.payload, row.s_m);
    }
    sections.push_back(std::move(section));
  }

  return WriteSections(path, std::move(sections), triples.size(), dict.size());
}

Result<TripleStore> LoadStore(const std::string& path) {
  // Full (eager) verification before any byte is trusted, including a
  // decode-validating pass over every posting block.
  MmapStore::Options options;
  options.verify = MmapStore::Verify::kEager;
  SPECQP_ASSIGN_OR_RETURN(std::unique_ptr<MmapStore> mapped,
                          MmapStore::Open(path, options));
  return MaterializeMapped(*mapped);
}

}  // namespace specqp
