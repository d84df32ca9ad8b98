#include "rdf/triple_store.h"

#include <algorithm>
#include <unordered_set>

#include "util/logging.h"
#include "util/stop_probe.h"

namespace specqp {

namespace {

// Projects a triple into the comparison tuple of each index order and
// compares against a (possibly partial) key where kInvalidTermId acts as a
// -inf/+inf wildcard depending on the bound used. We instead compare only
// the bound prefix, so equal_range over the prefix yields the match range.

struct SpoPrefixLess {
  std::span<const Triple> triples;
  // key packs (s, p, o); prefix_len in [0,3]
  int prefix_len;
  bool operator()(uint32_t idx, const PatternKey& k) const {
    const Triple& t = triples[idx];
    if (prefix_len >= 1 && t.s != k.s) return t.s < k.s;
    if (prefix_len >= 2 && t.p != k.p) return t.p < k.p;
    if (prefix_len >= 3 && t.o != k.o) return t.o < k.o;
    return false;
  }
  bool operator()(const PatternKey& k, uint32_t idx) const {
    const Triple& t = triples[idx];
    if (prefix_len >= 1 && t.s != k.s) return k.s < t.s;
    if (prefix_len >= 2 && t.p != k.p) return k.p < t.p;
    if (prefix_len >= 3 && t.o != k.o) return k.o < t.o;
    return false;
  }
};

struct PosPrefixLess {
  std::span<const Triple> triples;
  int prefix_len;  // over (p, o)
  bool operator()(uint32_t idx, const PatternKey& k) const {
    const Triple& t = triples[idx];
    if (prefix_len >= 1 && t.p != k.p) return t.p < k.p;
    if (prefix_len >= 2 && t.o != k.o) return t.o < k.o;
    return false;
  }
  bool operator()(const PatternKey& k, uint32_t idx) const {
    const Triple& t = triples[idx];
    if (prefix_len >= 1 && t.p != k.p) return k.p < t.p;
    if (prefix_len >= 2 && t.o != k.o) return k.o < t.o;
    return false;
  }
};

struct OspPrefixLess {
  std::span<const Triple> triples;
  int prefix_len;  // over (o, s)
  bool operator()(uint32_t idx, const PatternKey& k) const {
    const Triple& t = triples[idx];
    if (prefix_len >= 1 && t.o != k.o) return t.o < k.o;
    if (prefix_len >= 2 && t.s != k.s) return t.s < k.s;
    return false;
  }
  bool operator()(const PatternKey& k, uint32_t idx) const {
    const Triple& t = triples[idx];
    if (prefix_len >= 1 && t.o != k.o) return k.o < t.o;
    if (prefix_len >= 2 && t.s != k.s) return k.s < t.s;
    return false;
  }
};

}  // namespace

TripleStore TripleStore::FromView(Dictionary dict,
                                  std::span<const Triple> triples,
                                  std::span<const uint32_t> spo,
                                  std::span<const uint32_t> pos,
                                  std::span<const uint32_t> osp,
                                  const MappedBlockPostings* block_postings) {
  SPECQP_CHECK(spo.size() == triples.size() && pos.size() == triples.size() &&
               osp.size() == triples.size());
  SPECQP_CHECK(block_postings != nullptr);
  TripleStore store;
  store.dict_ = std::move(dict);
  store.view_ = true;
  store.finalized_ = true;  // view stores are born finalized
  store.triples_view_ = triples;
  store.spo_view_ = spo;
  store.pos_view_ = pos;
  store.osp_view_ = osp;
  store.mapped_block_postings_ = block_postings;
  return store;
}

TripleStore TripleStore::FromShardedSource(Dictionary dict,
                                           const ShardedTripleSource* source) {
  SPECQP_CHECK(source != nullptr);
  TripleStore store;
  store.dict_ = std::move(dict);
  store.sharded_ = source;
  store.finalized_ = true;  // sharded facades are born finalized
  return store;
}

void TripleStore::Add(std::string_view s, std::string_view p,
                      std::string_view o, double score) {
  AddEncoded(dict_.Intern(s), dict_.Intern(p), dict_.Intern(o), score);
}

void TripleStore::AddEncoded(TermId s, TermId p, TermId o, double score) {
  SPECQP_CHECK(!finalized_) << "Add after Finalize";
  SPECQP_CHECK(score >= 0.0) << "negative triple score";
  triples_.push_back(Triple{s, p, o, score});
}

void TripleStore::Finalize() {
  if (finalized_) return;

  // Deduplicate identical (s,p,o), keeping the max score. Sort in SPO order
  // first so duplicates are adjacent.
  std::sort(triples_.begin(), triples_.end(), [](const Triple& a,
                                                 const Triple& b) {
    return std::tie(a.s, a.p, a.o, b.score) < std::tie(b.s, b.p, b.o, a.score);
  });
  triples_.erase(
      std::unique(triples_.begin(), triples_.end(),
                  [](const Triple& a, const Triple& b) {
                    return a.s == b.s && a.p == b.p && a.o == b.o;
                  }),
      triples_.end());

  const uint32_t n = static_cast<uint32_t>(triples_.size());
  spo_.resize(n);
  pos_.resize(n);
  osp_.resize(n);
  for (uint32_t i = 0; i < n; ++i) spo_[i] = pos_[i] = osp_[i] = i;
  // triples_ is already SPO-sorted, so spo_ is the identity permutation.
  std::sort(pos_.begin(), pos_.end(), [this](uint32_t a, uint32_t b) {
    return OrderPos()(triples_[a], triples_[b]);
  });
  std::sort(osp_.begin(), osp_.end(), [this](uint32_t a, uint32_t b) {
    return OrderOsp()(triples_[a], triples_[b]);
  });
  finalized_ = true;
}

void TripleStore::CheckFinalized() const {
  SPECQP_CHECK(finalized_) << "TripleStore queried before Finalize()";
}

std::span<const uint32_t> TripleStore::MatchIndices(
    const PatternKey& key) const {
  CheckFinalized();
  if (sharded_ != nullptr) {
    // Scatter-gather backend: the source merges the shards' per-index
    // subranges into the same value order the branches below produce.
    return sharded_->Match(key);
  }
  const bool sb = key.s_bound();
  const bool pb = key.p_bound();
  const bool ob = key.o_bound();

  const std::span<const Triple> rows = triples();
  auto make_span = [](std::span<const uint32_t> idx, auto range) {
    return idx.subspan(static_cast<size_t>(range.first - idx.begin()),
                       static_cast<size_t>(range.second - range.first));
  };

  if (sb) {
    // SPO handles (s), (s,p), (s,p,o); OSP handles (s,o).
    if (ob && !pb) {
      const auto osp = OspIndex();
      auto r = std::equal_range(osp.begin(), osp.end(), key,
                                OspPrefixLess{rows, 2});
      return make_span(osp, r);
    }
    const int prefix = 1 + (pb ? 1 : 0) + ((pb && ob) ? 1 : 0);
    const auto spo = SpoIndex();
    auto r = std::equal_range(spo.begin(), spo.end(), key,
                              SpoPrefixLess{rows, prefix});
    return make_span(spo, r);
  }
  if (pb) {
    const int prefix = 1 + (ob ? 1 : 0);
    const auto pos = PosIndex();
    auto r = std::equal_range(pos.begin(), pos.end(), key,
                              PosPrefixLess{rows, prefix});
    return make_span(pos, r);
  }
  if (ob) {
    const auto osp = OspIndex();
    auto r = std::equal_range(osp.begin(), osp.end(), key,
                              OspPrefixLess{rows, 1});
    return make_span(osp, r);
  }
  return SpoIndex();
}

bool TripleStore::ReadsCutShort() const {
  return sharded_ != nullptr && ScopedStopProbe::StopRequested();
}

bool TripleStore::Contains(TermId s, TermId p, TermId o) const {
  PatternKey key{s, p, o};
  return !MatchIndices(key).empty();
}

size_t TripleStore::CountDistinct(const PatternKey& key, int slot) const {
  CheckFinalized();
  SPECQP_CHECK(slot >= 0 && slot <= 2);
  std::unordered_set<TermId> seen;
  for (uint32_t idx : MatchIndices(key)) {
    const Triple& t = triple(idx);
    switch (slot) {
      case 0:
        seen.insert(t.s);
        break;
      case 1:
        seen.insert(t.p);
        break;
      default:
        seen.insert(t.o);
        break;
    }
  }
  return seen.size();
}

double TripleStore::MaxScore(const PatternKey& key) const {
  double best = 0.0;
  for (uint32_t idx : MatchIndices(key)) {
    best = std::max(best, triple(idx).score);
  }
  return best;
}

TermId TripleStore::MustId(std::string_view term) const {
  auto r = dict_.Find(term);
  SPECQP_CHECK(r.ok()) << "unknown term: " << term;
  return r.value();
}

}  // namespace specqp
