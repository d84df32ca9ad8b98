#ifndef SPECQP_RDF_POSTING_BLOCKS_H_
#define SPECQP_RDF_POSTING_BLOCKS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "rdf/posting_entry.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace specqp {

// Block-compressed posting lists (store format v3, docs/FORMATS.md).
//
// A posting list — entries sorted by (normalised score descending, triple
// index ascending) — is cut into fixed-size blocks of kPostingBlockEntries
// entries (the last block may be shorter). Each block is delta-encoded
// into a private byte range of the payload section and summarised by a
// 32-byte header, so readers can reason about a block (its score ceiling,
// its id range, its location) without decoding it:
//
//   * triple indexes as zigzag varints of the delta to the previous entry
//     (the first entry deltas against 0);
//   * scores as varints of the difference between consecutive IEEE-754
//     bit patterns. Scores are non-negative and non-increasing, and for
//     non-negative doubles the total order of values equals the total
//     order of their bit patterns read as uint64 — so the deltas are
//     non-negative, score ties cost one byte, and decoding reproduces
//     every score bit-for-bit. This is the "quantisation onto the
//     IEEE-754 grid": residuals are exact by construction, which is what
//     keeps block-compressed answers bit-identical to flat ones.
//
// Every decode path validates: exact byte consumption, header/content
// agreement (max_score is the first entry's score, min_id/max_id are the
// block's exact id range), ordering within the block, and score range.
// Malformed payloads surface as Status::Corruption, never as a crash.

inline constexpr size_t kPostingBlockEntries = 64;

// One block's summary. `byte_offset`/`byte_length` locate the encoded
// payload inside the kPostingBlocks section; `max_score` equals the
// block's first (highest) entry score exactly; `min_id`/`max_id` are the
// smallest and largest triple index appearing in the block. No reader
// consults the id range; it stays a validated SQPSTOR3 field (decode and
// open check it) so the format needs no new version. `reserved` must be
// zero.
struct PostingBlockHeader {
  uint64_t byte_offset;
  uint32_t byte_length;
  uint16_t entry_count;  // in [1, kPostingBlockEntries]
  uint16_t reserved;
  double max_score;
  uint32_t min_id;
  uint32_t max_id;
};
static_assert(sizeof(PostingBlockHeader) == 32 &&
              alignof(PostingBlockHeader) == 8 &&
              offsetof(PostingBlockHeader, byte_offset) == 0 &&
              offsetof(PostingBlockHeader, byte_length) == 8 &&
              offsetof(PostingBlockHeader, entry_count) == 12 &&
              offsetof(PostingBlockHeader, reserved) == 14 &&
              offsetof(PostingBlockHeader, max_score) == 16 &&
              offsetof(PostingBlockHeader, min_id) == 24 &&
              offsetof(PostingBlockHeader, max_id) == 28);

// Encoder output: headers with byte offsets relative to the start of
// `payload` (a writer concatenating several lists rebases them).
struct EncodedPostingBlocks {
  std::vector<PostingBlockHeader> headers;
  std::vector<uint8_t> payload;
};

// Cuts `entries` (sorted by score desc, id asc) into blocks and encodes
// them. Deterministic byte-for-byte for a given input.
EncodedPostingBlocks EncodePostingBlocks(const PostingEntry* entries,
                                         size_t count);

// One decoded block's entries, shared between the memoising source and any
// live iterators (so dropping the memo never invalidates a reader).
struct DecodedPostingBlock {
  std::vector<PostingEntry> entries;
};

// Decodes and validates the block `header` describes against the whole
// payload section. `id_limit` bounds triple indexes (pass the store's
// triple count; UINT32_MAX disables the check). On success `out->entries`
// holds exactly header.entry_count entries.
[[nodiscard]] Status DecodePostingBlock(const PostingBlockHeader& header,
                                        std::span<const uint8_t> payload,
                                        uint32_t id_limit,
                                        DecodedPostingBlock* out);

// The block backend of a PostingList: block headers plus the encoded
// payload (zero-copy spans into a mapping, or owned buffers), with a
// thread-safe per-block memo of decoded entries.
//
// Decoded blocks are handed out as shared_ptr so the cache layer can
// release the memo (block-granular eviction, see PostingListCache) while
// iterators mid-block keep their snapshot alive. decoded_bytes() feeds the
// cache's byte accounting.
class PostingBlockSource {
 public:
  // Zero-copy over mapped memory; the caller keeps the mapping alive.
  PostingBlockSource(std::span<const PostingBlockHeader> headers,
                     std::span<const uint8_t> payload, uint64_t entry_count,
                     uint32_t id_limit = UINT32_MAX);
  // Owning variant (in-memory blocked lists, tests).
  PostingBlockSource(std::vector<PostingBlockHeader> headers,
                     std::vector<uint8_t> payload, uint64_t entry_count,
                     uint32_t id_limit = UINT32_MAX);

  PostingBlockSource(const PostingBlockSource&) = delete;
  PostingBlockSource& operator=(const PostingBlockSource&) = delete;

  size_t num_blocks() const { return headers_.size(); }
  uint64_t entry_count() const { return entry_count_; }
  const PostingBlockHeader& header(size_t block) const {
    return headers_[block];
  }

  // The block's decoded entries, memoised. A payload that fails to decode
  // — a crafted file that slipped past lazy verification, a mapping page
  // the SIGBUS handler zero-filled mid-query, or an injected
  // "block.decode" fault — raises fault_count() and yields a placeholder
  // block of {id 0, score 0} entries (shape-correct, never cached), so
  // the iterator stays memory-safe and the scan above notices the fault
  // at its next poll instead of the process CHECK-dying.
  std::shared_ptr<const DecodedPostingBlock> Decode(size_t block) const;

  // Number of Decode calls that have failed over the source's lifetime.
  // Iterators snapshot this at construction and treat any increase as
  // "my data may contain placeholders" — which fails the query with
  // IoError but does not poison later queries: the placeholder is never
  // memoised, so a transiently-faulted block decodes afresh next time,
  // while genuine corruption fails again and re-raises the count.
  uint64_t fault_count() const {
    return fault_count_.load(std::memory_order_acquire);
  }

  // Bytes held by the decoded-block memo right now.
  size_t decoded_bytes() const {
    return decoded_bytes_.load(std::memory_order_relaxed);
  }
  // Owned (non-mapped) header/payload bytes; 0 for zero-copy sources.
  size_t owned_bytes() const { return owned_bytes_; }

  // Drops every memoised decoded block and returns the bytes released.
  // Safe at any time: live iterators keep their current block through
  // their own shared_ptr; later accesses simply decode again.
  size_t ReleaseDecodedBlocks() const;

 private:
  std::vector<PostingBlockHeader> owned_headers_;
  std::vector<uint8_t> owned_payload_;
  std::span<const PostingBlockHeader> headers_;
  std::span<const uint8_t> payload_;
  uint64_t entry_count_ = 0;
  uint32_t id_limit_ = UINT32_MAX;
  size_t owned_bytes_ = 0;

  mutable Mutex mu_;
  mutable std::vector<std::shared_ptr<const DecodedPostingBlock>> slots_
      SPECQP_GUARDED_BY(mu_);
  mutable std::atomic<size_t> decoded_bytes_{0};
  mutable std::atomic<uint64_t> fault_count_{0};
};

}  // namespace specqp

#endif  // SPECQP_RDF_POSTING_BLOCKS_H_
