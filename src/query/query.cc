#include "query/query.h"

#include <algorithm>

#include "util/logging.h"
#include "util/string_util.h"

namespace specqp {

VarId Query::GetOrAddVariable(std::string_view name) {
  for (size_t i = 0; i < var_names_.size(); ++i) {
    if (var_names_[i] == name) return static_cast<VarId>(i);
  }
  return AddVariable(name);
}

VarId Query::AddVariable(std::string_view name) {
  SPECQP_CHECK(var_names_.size() < kInvalidVarId);
  var_names_.emplace_back(name);
  return static_cast<VarId>(var_names_.size() - 1);
}

Result<VarId> Query::FindVariable(std::string_view name) const {
  for (size_t i = 0; i < var_names_.size(); ++i) {
    if (var_names_[i] == name) return static_cast<VarId>(i);
  }
  return Status::NotFound(StrFormat("unknown variable '?%.*s'",
                                    static_cast<int>(name.size()),
                                    name.data()));
}

void Query::ReplacePattern(size_t index, const TriplePattern& pattern) {
  SPECQP_CHECK(index < patterns_.size());
  patterns_[index] = pattern;
}

std::string_view Query::var_name(VarId v) const {
  SPECQP_CHECK(v < var_names_.size());
  return var_names_[v];
}

std::vector<VarId> Query::SharedVars(size_t i, size_t j) const {
  SPECQP_CHECK(i < patterns_.size() && j < patterns_.size());
  VarId vi[3];
  VarId vj[3];
  const int ni = patterns_[i].Variables(vi);
  const int nj = patterns_[j].Variables(vj);
  std::vector<VarId> shared;
  for (int a = 0; a < ni; ++a) {
    for (int b = 0; b < nj; ++b) {
      if (vi[a] == vj[b]) shared.push_back(vi[a]);
    }
  }
  std::sort(shared.begin(), shared.end());
  return shared;
}

std::vector<VarId> Query::SharedVarsWithSet(
    size_t i, const std::vector<size_t>& others) const {
  VarId vi[3];
  const int ni = patterns_[i].Variables(vi);
  std::vector<VarId> shared;
  for (int a = 0; a < ni; ++a) {
    for (size_t j : others) {
      if (j == i) continue;
      if (patterns_[j].UsesVariable(vi[a])) {
        shared.push_back(vi[a]);
        break;
      }
    }
  }
  std::sort(shared.begin(), shared.end());
  shared.erase(std::unique(shared.begin(), shared.end()), shared.end());
  return shared;
}

bool Query::IsConnected() const {
  if (patterns_.size() <= 1) return true;
  std::vector<bool> reached(patterns_.size(), false);
  std::vector<size_t> frontier = {0};
  reached[0] = true;
  size_t count = 1;
  while (!frontier.empty()) {
    const size_t cur = frontier.back();
    frontier.pop_back();
    for (size_t j = 0; j < patterns_.size(); ++j) {
      if (reached[j]) continue;
      if (!SharedVars(cur, j).empty()) {
        reached[j] = true;
        ++count;
        frontier.push_back(j);
      }
    }
  }
  return count == patterns_.size();
}

std::string Query::ToString(const Dictionary& dict) const {
  std::string out = "SELECT";
  if (projection_.empty()) {
    out += " *";
  } else {
    for (VarId v : projection_) {
      out += " ?";
      out += var_name(v);
    }
  }
  out += " WHERE {";
  auto render = [&](const PatternTerm& t) -> std::string {
    if (t.is_variable()) {
      return StrFormat("?%.*s",
                       static_cast<int>(var_name(t.var()).size()),
                       var_name(t.var()).data());
    }
    std::string_view name = dict.Name(t.term());
    return StrFormat("<%.*s>", static_cast<int>(name.size()), name.data());
  };
  for (size_t i = 0; i < patterns_.size(); ++i) {
    if (i > 0) out += " .";
    out += " " + render(patterns_[i].s) + " " + render(patterns_[i].p) + " " +
           render(patterns_[i].o);
  }
  out += " }";
  return out;
}

}  // namespace specqp
