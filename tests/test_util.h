#ifndef SPECQP_TESTS_TEST_UTIL_H_
#define SPECQP_TESTS_TEST_UTIL_H_

#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/batch_executor.h"
#include "core/engine.h"
#include "core/request.h"
#include "query/parser.h"
#include "query/query.h"
#include "rdf/triple_store.h"
#include "relax/relaxation_index.h"
#include "topk/exec_stats.h"
#include "topk/operator.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/result.h"

namespace specqp::testing {

// ---------------------------------------------------------------------------
// Unified-API execution helpers. Tests execute through the same entry
// points as any caller — Submit with immediate admission for one query,
// BatchExecutor for a pre-assembled batch — and compare QueryResponses.
// ---------------------------------------------------------------------------

// One pre-parsed query, immediate admission; CHECKs the terminal status
// (nothing on this path can fail for a well-formed request).
inline QueryResponse Execute(Engine& engine, const Query& query, size_t k,
                             Strategy strategy) {
  QueryRequest request = QueryRequest::FromQuery(query, k, strategy);
  request.admission = QueryRequest::Admission::kImmediate;
  QueryResponse response = engine.Submit(std::move(request)).get();
  SPECQP_CHECK(response.status.ok()) << response.status.ToString();
  return response;
}

// One text query, immediate admission; a parse error comes back as the
// Result's status.
inline Result<QueryResponse> ExecuteText(Engine& engine, std::string_view text,
                                         size_t k, Strategy strategy) {
  QueryRequest request =
      QueryRequest::FromText(std::string(text), k, strategy);
  request.admission = QueryRequest::Admission::kImmediate;
  QueryResponse response = engine.Submit(std::move(request)).get();
  if (!response.status.ok()) return response.status;
  return response;
}

inline std::vector<QueryResponse> ExecuteBatch(
    Engine& engine, std::span<const Query> queries, size_t k,
    Strategy strategy, BatchStats* batch_stats = nullptr) {
  BatchExecutor batch(&engine);
  return batch.Execute(queries, k, strategy, batch_stats);
}

// Parses every text and batch-executes the ones that parse; a slot that
// fails to parse carries its parse error and does not affect the others.
inline std::vector<Result<QueryResponse>> ExecuteTextBatch(
    Engine& engine, std::span<const std::string> texts, size_t k,
    Strategy strategy, BatchStats* batch_stats = nullptr) {
  std::vector<Result<QueryResponse>> out;
  out.reserve(texts.size());
  std::vector<Query> parsed;
  std::vector<size_t> parsed_slot;
  std::vector<Status> errors(texts.size(), Status::Ok());
  constexpr size_t kFailed = static_cast<size_t>(-1);
  for (size_t i = 0; i < texts.size(); ++i) {
    auto query = ParseQuery(texts[i], engine.store().dict());
    if (query.ok()) {
      parsed_slot.push_back(parsed.size());
      parsed.push_back(std::move(query).value());
    } else {
      parsed_slot.push_back(kFailed);
      errors[i] = query.status();
    }
  }
  std::vector<QueryResponse> results =
      ExecuteBatch(engine, parsed, k, strategy, batch_stats);
  for (size_t i = 0; i < texts.size(); ++i) {
    if (parsed_slot[i] == kFailed) {
      out.push_back(Result<QueryResponse>(errors[i]));
    } else {
      out.push_back(Result<QueryResponse>(std::move(results[parsed_slot[i]])));
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// The "music" fixture: a tiny hand-built knowledge graph shaped like the
// paper's running example ("Which singers also write lyrics and play guitar
// and piano?"), with Table-1-style relaxation rules. Scores are entity
// popularities; every rdf:type triple about an entity carries its
// popularity.
// ---------------------------------------------------------------------------

struct MusicFixture {
  TripleStore store;
  RelaxationIndex rules;

  TermId type = kInvalidTermId;

  TermId Id(std::string_view name) const { return store.MustId(name); }

  // Star query: ?s <rdf:type> <t> for each type name.
  Query TypeQuery(const std::vector<std::string>& type_names) const {
    Query query;
    const VarId s = query.GetOrAddVariable("s");
    for (const std::string& name : type_names) {
      query.AddPattern(TriplePattern(PatternTerm::Var(s),
                                     PatternTerm::Const(type),
                                     PatternTerm::Const(Id(name))));
    }
    query.AddProjection(s);
    return query;
  }
};

inline MusicFixture MakeMusicFixture() {
  MusicFixture fx;
  TripleStore& store = fx.store;

  struct Entity {
    const char* name;
    double popularity;
  };
  const std::vector<Entity> entities = {
      {"shakira", 100}, {"beyonce", 90}, {"adele", 85}, {"sting", 80},
      {"miley", 70},    {"taylor", 65},  {"bob", 60},   {"norah", 55},
      {"elton", 50},    {"ray", 45},
  };
  const std::vector<std::pair<const char*, std::vector<const char*>>>
      memberships = {
          {"singer", {"shakira", "beyonce", "adele", "miley", "taylor"}},
          {"vocalist",
           {"shakira", "beyonce", "adele", "sting", "norah", "bob"}},
          {"jazz_singer", {"norah", "ray"}},
          {"artist",
           {"shakira", "beyonce", "adele", "sting", "miley", "taylor", "bob",
            "norah", "elton", "ray"}},
          {"lyricist", {"sting", "bob", "taylor", "elton"}},
          {"writer", {"bob", "sting", "taylor", "elton", "shakira"}},
          {"guitarist", {"shakira", "sting", "bob", "taylor"}},
          {"musician",
           {"shakira", "beyonce", "adele", "sting", "miley", "taylor", "bob",
            "norah", "elton", "ray"}},
          {"instrumentalist", {"sting", "bob", "elton", "ray", "norah"}},
          {"pianist", {"elton", "ray", "norah", "adele"}},
          {"percussionist", {"shakira", "ray"}},
      };

  auto pop = [&](std::string_view name) {
    for (const Entity& e : entities) {
      if (name == e.name) return e.popularity;
    }
    SPECQP_CHECK(false) << "unknown entity " << name;
    return 0.0;
  };

  for (const auto& [type_name, members] : memberships) {
    for (const char* member : members) {
      store.Add(member, "rdf:type", type_name, pop(member));
    }
  }
  store.Finalize();
  fx.type = store.MustId("rdf:type");

  auto add_rule = [&](const char* from, const char* to, double w) {
    RelaxationRule rule;
    rule.from = PatternKey{kInvalidTermId, fx.type, store.MustId(from)};
    rule.to = PatternKey{kInvalidTermId, fx.type, store.MustId(to)};
    rule.weight = w;
    const Status status = fx.rules.AddRule(rule);
    SPECQP_CHECK(status.ok()) << status.ToString();
  };
  // Table 1 of the paper, with weights.
  add_rule("singer", "vocalist", 0.9);
  add_rule("singer", "jazz_singer", 0.6);
  add_rule("singer", "artist", 0.5);
  add_rule("lyricist", "writer", 0.8);
  add_rule("guitarist", "musician", 0.7);
  add_rule("guitarist", "instrumentalist", 0.65);
  add_rule("pianist", "percussionist", 0.55);
  return fx;
}

// ---------------------------------------------------------------------------
// Random stores for property tests.
// ---------------------------------------------------------------------------

struct RandomStoreConfig {
  size_t num_subjects = 30;
  size_t num_predicates = 4;
  size_t num_objects = 12;
  size_t num_triples = 150;
  double max_score = 100.0;
};

inline TripleStore MakeRandomStore(Rng* rng, const RandomStoreConfig& cfg) {
  TripleStore store;
  Dictionary& dict = store.dict();
  std::vector<TermId> subjects;
  std::vector<TermId> predicates;
  std::vector<TermId> objects;
  for (size_t i = 0; i < cfg.num_subjects; ++i) {
    subjects.push_back(dict.Intern("s" + std::to_string(i)));
  }
  for (size_t i = 0; i < cfg.num_predicates; ++i) {
    predicates.push_back(dict.Intern("p" + std::to_string(i)));
  }
  for (size_t i = 0; i < cfg.num_objects; ++i) {
    objects.push_back(dict.Intern("o" + std::to_string(i)));
  }
  for (size_t i = 0; i < cfg.num_triples; ++i) {
    store.AddEncoded(subjects[rng->NextBounded(subjects.size())],
                     predicates[rng->NextBounded(predicates.size())],
                     objects[rng->NextBounded(objects.size())],
                     rng->NextDouble(0.0, cfg.max_score));
  }
  store.Finalize();
  return store;
}

// Random relaxation rules among the objects of each predicate.
inline RelaxationIndex MakeRandomRules(Rng* rng, const TripleStore& store,
                                       size_t rules_per_pattern = 3) {
  RelaxationIndex rules;
  // Collect distinct (p, o) pairs.
  std::vector<PatternKey> pattern_keys;
  {
    std::vector<std::pair<TermId, TermId>> seen;
    for (const Triple& t : store.triples()) {
      seen.emplace_back(t.p, t.o);
    }
    std::sort(seen.begin(), seen.end());
    seen.erase(std::unique(seen.begin(), seen.end()), seen.end());
    for (const auto& [p, o] : seen) {
      pattern_keys.push_back(PatternKey{kInvalidTermId, p, o});
    }
  }
  for (const PatternKey& from : pattern_keys) {
    for (size_t r = 0; r < rules_per_pattern; ++r) {
      const PatternKey& to =
          pattern_keys[rng->NextBounded(pattern_keys.size())];
      if (to == from || to.p != from.p) continue;
      RelaxationRule rule{from, to, rng->NextDouble(0.1, 0.95)};
      const Status status = rules.AddRule(rule);
      SPECQP_CHECK(status.ok()) << status.ToString();
    }
  }
  return rules;
}

// Star query over `n` distinct (p, o) pairs that exist in the store.
inline Query MakeRandomStarQuery(Rng* rng, const TripleStore& store,
                                 size_t n) {
  std::vector<std::pair<TermId, TermId>> pairs;
  for (const Triple& t : store.triples()) {
    pairs.emplace_back(t.p, t.o);
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  SPECQP_CHECK(pairs.size() >= n);
  rng->Shuffle(&pairs);

  Query query;
  const VarId s = query.GetOrAddVariable("s");
  for (size_t i = 0; i < n; ++i) {
    query.AddPattern(TriplePattern(PatternTerm::Var(s),
                                   PatternTerm::Const(pairs[i].first),
                                   PatternTerm::Const(pairs[i].second)));
  }
  query.AddProjection(s);
  return query;
}

// ---------------------------------------------------------------------------
// Operator helpers.
// ---------------------------------------------------------------------------

// Feeds a fixed, score-descending vector of rows through the iterator
// interface (for unit-testing merge/join operators in isolation).
class VectorIterator : public ScoredRowIterator {
 public:
  explicit VectorIterator(std::vector<ScoredRow> rows)
      : rows_(std::move(rows)) {
    for (size_t i = 1; i < rows_.size(); ++i) {
      SPECQP_CHECK(rows_[i - 1].score >= rows_[i].score)
          << "VectorIterator input must be score-descending";
    }
  }

  bool Next(ScoredRow* out) override {
    if (cursor_ >= rows_.size()) return false;
    *out = rows_[cursor_++];
    return true;
  }

  double UpperBound() const override {
    if (cursor_ >= rows_.size()) return kExhausted;
    return rows_[cursor_].score;
  }

 private:
  std::vector<ScoredRow> rows_;
  size_t cursor_ = 0;
};

// Drains an iterator completely.
inline std::vector<ScoredRow> Drain(ScoredRowIterator* it) {
  std::vector<ScoredRow> out;
  ScoredRow row;
  while (it->Next(&row)) out.push_back(row);
  return out;
}

// Builds a row binding variable 0 to `value`.
inline ScoredRow Row1(size_t width, TermId value, double score) {
  ScoredRow row(width, score);
  row.bindings[0] = value;
  return row;
}

}  // namespace specqp::testing

#endif  // SPECQP_TESTS_TEST_UTIL_H_
