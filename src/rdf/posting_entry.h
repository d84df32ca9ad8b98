#ifndef SPECQP_RDF_POSTING_ENTRY_H_
#define SPECQP_RDF_POSTING_ENTRY_H_

#include <cstdint>

namespace specqp {

// One match of a triple pattern, carrying the pattern-normalised score of
// Definition 5: S(t|q) = S(t) / max_{t' in matches(q)} S(t').
//
// On disk, posting lists store these records block-compressed
// (rdf/posting_blocks.h, docs/FORMATS.md).
struct PostingEntry {
  uint32_t triple_index = 0;  // into TripleStore::triples()
  double score = 0.0;         // normalised, in [0, 1]
};

}  // namespace specqp

#endif  // SPECQP_RDF_POSTING_ENTRY_H_
