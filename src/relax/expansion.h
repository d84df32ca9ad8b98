#ifndef SPECQP_RELAX_EXPANSION_H_
#define SPECQP_RELAX_EXPANSION_H_

#include <unordered_map>
#include <vector>

#include "rdf/triple_pattern.h"
#include "relax/relaxation_index.h"

namespace specqp {

// The full relaxation expansion of one pattern key: every pattern key an
// execution (or a cache-warming pass) touches when the pattern runs with
// its relaxations — mined once from the rule index per distinct pattern
// and reused across the queries of a batch.
struct PatternExpansion {
  // Simple-rule targets, in the index's weight-descending order.
  std::vector<PatternKey> relaxed;
  // Chain-rule hop keys, two per chain rule: (?s hop1_p ?z), (?z hop2_p o).
  std::vector<PatternKey> chain_hops;
  size_t num_rules = 0;
  size_t num_chain_rules = 0;
};

// Mines `key`'s expansion from `rules` (one index probe per rule family).
PatternExpansion ExpandPattern(const RelaxationIndex& rules,
                               const PatternKey& key);

// Batch-scoped memo: the expansion of each distinct pattern is mined once,
// no matter how many queries of the batch (or relaxed variants of one
// query) repeat the pattern. Not thread-safe: each batch owns one and
// prepares on one thread.
class RelaxationExpansionCache {
 public:
  explicit RelaxationExpansionCache(const RelaxationIndex* rules);

  RelaxationExpansionCache(const RelaxationExpansionCache&) = delete;
  RelaxationExpansionCache& operator=(const RelaxationExpansionCache&) = delete;

  const PatternExpansion& For(const PatternKey& key);

  // Distinct patterns expanded so far.
  size_t size() const { return memo_.size(); }

 private:
  const RelaxationIndex* rules_;
  std::unordered_map<PatternKey, PatternExpansion, PatternKeyHash> memo_;
};

}  // namespace specqp

#endif  // SPECQP_RELAX_EXPANSION_H_
