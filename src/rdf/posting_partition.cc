#include "rdf/posting_partition.h"

#include "util/logging.h"

namespace specqp {

uint32_t PostingPartitionOf(TermId t, uint32_t num_partitions) {
  SPECQP_DCHECK(num_partitions > 0);
  // splitmix64 finalizer.
  uint64_t x = static_cast<uint64_t>(t) + 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  x = x ^ (x >> 31);
  return static_cast<uint32_t>(x % num_partitions);
}

std::vector<std::shared_ptr<const PostingList>> PartitionPostingList(
    const TripleStore& store, const PostingList& list, int slot,
    uint32_t num_partitions) {
  SPECQP_CHECK(slot >= 0 && slot <= 2);
  SPECQP_CHECK(num_partitions > 0);

  std::vector<PostingList> pieces(num_partitions);
  for (PostingList& piece : pieces) {
    piece.max_raw_score = list.max_raw_score;
  }
  // Canonical access path: a block-compressed base list decodes one block
  // at a time while its entries are dealt to the pieces, so partitioning
  // never needs the whole list flat. Pieces stay flat regardless of the
  // base's backend — partition order equals list order either way.
  for (BlockIterator it(&list); !it.AtEnd(); it.Advance()) {
    const PostingEntry& entry = it.Entry();
    const Triple& t = store.triple(entry.triple_index);
    const TermId term = slot == 0 ? t.s : (slot == 1 ? t.p : t.o);
    pieces[PostingPartitionOf(term, num_partitions)].entries.push_back(entry);
  }

  std::vector<std::shared_ptr<const PostingList>> out;
  out.reserve(num_partitions);
  for (PostingList& piece : pieces) {
    out.push_back(std::make_shared<const PostingList>(std::move(piece)));
  }
  return out;
}

}  // namespace specqp
