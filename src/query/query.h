#ifndef SPECQP_QUERY_QUERY_H_
#define SPECQP_QUERY_QUERY_H_

#include <string>
#include <string_view>
#include <vector>

#include "rdf/dictionary.h"
#include "rdf/triple_pattern.h"
#include "util/result.h"

namespace specqp {

// A triple-pattern query (Definition 3): a conjunction of triple patterns
// sharing variables, plus a projection list. Variables are identified by
// dense VarIds local to the query; the query owns the VarId -> name table.
//
// Queries are value types: the planner copies them to build relaxed
// variants.
class Query {
 public:
  Query() = default;

  Query(const Query&) = default;
  Query& operator=(const Query&) = default;
  Query(Query&&) = default;
  Query& operator=(Query&&) = default;

  // Returns the VarId for `name` (without the leading '?'), registering it
  // on first use. The lookup scans every registered name.
  VarId GetOrAddVariable(std::string_view name);

  // Registers `name` (without the leading '?') as a new variable and
  // returns its VarId. The caller guarantees `name` is not registered yet
  // and num_vars() < kInvalidVarId; the parser keeps its own name index to
  // check the first, so a query of n variables parses in O(n).
  VarId AddVariable(std::string_view name);

  [[nodiscard]] Result<VarId> FindVariable(std::string_view name) const;

  void AddPattern(const TriplePattern& pattern) {
    patterns_.push_back(pattern);
  }

  // Replaces pattern `index`; used when applying relaxation rules.
  void ReplacePattern(size_t index, const TriplePattern& pattern);

  void AddProjection(VarId v) { projection_.push_back(v); }

  const std::vector<TriplePattern>& patterns() const { return patterns_; }
  size_t num_patterns() const { return patterns_.size(); }
  const TriplePattern& pattern(size_t i) const { return patterns_[i]; }

  size_t num_vars() const { return var_names_.size(); }
  std::string_view var_name(VarId v) const;
  const std::vector<VarId>& projection() const { return projection_; }

  // Variables shared between pattern `i` and pattern `j` (the join key of
  // Definition 4's answer mapping).
  std::vector<VarId> SharedVars(size_t i, size_t j) const;

  // Variables shared between pattern `i` and any pattern in `others`
  // (indices into patterns()).
  std::vector<VarId> SharedVarsWithSet(size_t i,
                                       const std::vector<size_t>& others) const;

  // True iff every pattern is connected to the rest through shared
  // variables (no cross products).
  bool IsConnected() const;

  // SPARQL-ish rendering, e.g.
  //   SELECT ?s WHERE { ?s <rdf:type> <singer> . ?s <rdf:type> <pianist> }
  std::string ToString(const Dictionary& dict) const;

 private:
  std::vector<TriplePattern> patterns_;
  std::vector<std::string> var_names_;
  std::vector<VarId> projection_;
};

}  // namespace specqp

#endif  // SPECQP_QUERY_QUERY_H_
