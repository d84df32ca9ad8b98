// Interactive shell over a Spec-QP knowledge graph: generate or load a
// store, type SPARQL-subset queries, inspect plans and relaxations.
//
//   $ ./build/examples/kg_shell            # generates a demo music KG
//   $ echo 'k 5
//     plan SELECT ?s WHERE { ?s <rdf:type> <singer> }
//     run SELECT ?s WHERE { ?s <rdf:type> <singer> }' | ./build/examples/kg_shell
//
// Commands:
//   run <query>        execute under Spec-QP and print the top-k
//   trinit <query>     execute under the TriniT baseline
//   submit <q1> ; <q2> submit several ';'-separated queries asynchronously
//                      (Engine::Submit): requests stream into the
//                      admission window, close on max-size/max-delay, and
//                      dispatch as one shared-scan batch; prints each
//                      top-k plus the admission ledger
//   batch <q1> ; <q2>  execute several ';'-separated queries as one
//                      pre-assembled batch (BatchExecutor) and print the
//                      batch's amortisation ledger
//   plan <query>       show PLANGEN's decision without executing
//   explain <query>    same via Engine::Explain (the request-API entry
//                      point; accepts "explain trinit <query>" etc.)
//   rules <term>       list relaxations for (?s <rdf:type> <term>) or any
//                      (?s <p> <o>) via "rules <p> <o>"
//   k <n>              set k (default 10)
//   save <prefix>      write <prefix>.store and <prefix>.rules
//   load <prefix>      load them back
//   stats              store, cache, and admission statistics
//   help / quit
//
// Load path: `save` writes a SQPSTOR3 store file (see docs/FORMATS.md)
// with the engine's warmed statistics snapshot embedded; `load` goes
// through Engine::OpenFromPath, which memory-maps the file — a zero-copy
// open with no per-triple parsing. The statistics snapshot pre-seeds the
// new engine's catalog, so plans right after `load` match the session
// that saved the store. `stats` shows which backend (mapped or parsed) is
// serving.

#include <cctype>
#include <cstdio>
#include <future>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/batch_executor.h"
#include "core/engine.h"
#include "query/parser.h"
#include "rdf/store_io.h"
#include "relax/miner.h"
#include "relax/rules_io.h"
#include "topk/scored_row.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/string_util.h"

using namespace specqp;

namespace {

// The demo KG: the music example from the paper's introduction.
void BuildDemoKg(TripleStore* store, RelaxationIndex* rules) {
  Rng rng(7);
  const char* roles[] = {"singer",   "vocalist",  "jazz_singer", "artist",
                         "lyricist", "writer",    "guitarist",   "musician",
                         "pianist",  "percussionist"};
  for (int i = 0; i < 2000; ++i) {
    const std::string artist = "artist" + std::to_string(i);
    const double popularity = 1e4 / (i + 1.0);
    // Correlated role membership so mining finds Table-1-like rules.
    const bool sings = rng.NextBool(0.3);
    if (sings) {
      store->Add(artist, "rdf:type", "singer", popularity);
      if (rng.NextBool(0.9)) {
        store->Add(artist, "rdf:type", "vocalist", popularity);
      }
      if (rng.NextBool(0.15)) {
        store->Add(artist, "rdf:type", "jazz_singer", popularity);
      }
    }
    if (rng.NextBool(0.2)) {
      store->Add(artist, "rdf:type", "lyricist", popularity);
      if (rng.NextBool(0.85)) {
        store->Add(artist, "rdf:type", "writer", popularity);
      }
    }
    for (const char* instrument : {"guitarist", "pianist", "percussionist"}) {
      if (rng.NextBool(0.15)) {
        store->Add(artist, "rdf:type", instrument, popularity);
        if (rng.NextBool(0.9)) {
          store->Add(artist, "rdf:type", "musician", popularity);
        }
      }
    }
    if (rng.NextBool(0.5)) store->Add(artist, "rdf:type", "artist", popularity);
    (void)roles;
  }
  store->Finalize();
  MinerOptions miner;
  miner.min_support = 5;
  const Status status = MineObjectCooccurrence(
      *store, store->MustId("rdf:type"), miner, rules);
  SPECQP_CHECK(status.ok()) << status.ToString();
}

class Shell {
 public:
  Shell() {
    store_ = std::make_unique<TripleStore>();
    rules_ = std::make_unique<RelaxationIndex>();
    BuildDemoKg(store_.get(), rules_.get());
    RebuildEngine();
    std::printf("demo KG ready: %zu triples, %zu relaxation rules. Type "
                "'help' for commands.\n",
                store().size(), rules_->total_rules());
  }

  int Loop() {
    std::string line;
    while (true) {
      std::printf("specqp> ");
      std::fflush(stdout);
      if (!std::getline(std::cin, line)) break;
      if (!Dispatch(line)) break;
    }
    return 0;
  }

 private:
  // The active store/engine pair: the generated demo KG (store_/engine_)
  // until `load` replaces it with an Engine::Opened bundle that owns the
  // mapped or parsed file-backed store.
  const TripleStore& store() const {
    return opened_.has_value() ? opened_->store() : *store_;
  }
  Engine& engine() {
    return opened_.has_value() ? *opened_->engine : *engine_;
  }

  void RebuildEngine() {
    opened_.reset();
    engine_ = std::make_unique<Engine>(store_.get(), rules_.get());
  }

  bool Dispatch(const std::string& line) {
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd.empty()) return true;
    std::string rest;
    std::getline(in, rest);
    const std::string arg(StripWhitespace(rest));

    if (cmd == "quit" || cmd == "exit") return false;
    if (cmd == "help") {
      std::printf(
          "commands: run <query> | trinit <query> | submit <q1> ; <q2> ... "
          "| batch <q1> ; <q2> ... | plan <query> | explain [trinit|"
          "norelax] <query> | rules <p> <o> | k <n> | save <prefix> | "
          "load <prefix> | stats | quit\n");
    } else if (cmd == "k") {
      const int value = std::atoi(arg.c_str());
      if (value >= 1) {
        k_ = static_cast<size_t>(value);
        std::printf("k = %zu\n", k_);
      } else {
        std::printf("usage: k <positive integer>\n");
      }
    } else if (cmd == "run" || cmd == "trinit") {
      Execute(arg, cmd == "run" ? Strategy::kSpecQp : Strategy::kTrinit);
    } else if (cmd == "submit") {
      SubmitCmd(arg);
    } else if (cmd == "batch") {
      ExecuteBatchCmd(arg);
    } else if (cmd == "plan" || cmd == "explain") {
      Plan(arg);
    } else if (cmd == "rules") {
      ShowRules(arg);
    } else if (cmd == "save") {
      Save(arg);
    } else if (cmd == "load") {
      Load(arg);
    } else if (cmd == "stats") {
      std::printf("store: %zu triples, %zu terms (%s); rules: %zu simple, "
                  "%zu chain; posting cache: %zu lists (%llu hits / %llu "
                  "misses); stats catalog: %zu patterns\n",
                  store().size(), store().dict().size(),
                  opened_.has_value() && opened_->mmap_backed()
                      ? "mmap-backed"
                      : "in-memory",
                  rules_->total_rules(), rules_->total_chain_rules(),
                  engine().postings().size(),
                  static_cast<unsigned long long>(engine().postings().hits()),
                  static_cast<unsigned long long>(
                      engine().postings().misses()),
                  engine().catalog().size());
      const AdmissionController::Stats admission =
          engine().admission().stats();
      std::printf("admission: %llu submitted, %llu windows dispatched "
                  "(max %zu), %llu cancelled, %llu deadline-exceeded\n",
                  static_cast<unsigned long long>(admission.submitted),
                  static_cast<unsigned long long>(
                      admission.windows_dispatched),
                  admission.max_window_size,
                  static_cast<unsigned long long>(admission.cancelled),
                  static_cast<unsigned long long>(
                      admission.deadline_exceeded));
    } else {
      std::printf("unknown command '%s' (try 'help')\n", cmd.c_str());
    }
    return true;
  }

  void Execute(const std::string& text, Strategy strategy) {
    auto parsed = ParseQuery(text, store().dict());
    if (!parsed.ok()) {
      std::printf("%s\n", parsed.status().ToString().c_str());
      return;
    }
    // Immediate admission: the shell is a single synchronous caller, so
    // there is nothing to batch with.
    QueryRequest request =
        QueryRequest::FromQuery(parsed.value(), k_, strategy);
    request.admission = QueryRequest::Admission::kImmediate;
    const QueryResponse response = engine().Submit(std::move(request)).get();
    if (!response.ok()) {
      std::printf("%s\n", response.status.ToString().c_str());
      return;
    }
    std::printf("[%s] plan %s — %.3f ms, %llu answer objects\n",
                std::string(StrategyName(strategy)).c_str(),
                response.plan.ToString().c_str(),
                response.stats.plan_ms + response.stats.exec_ms,
                static_cast<unsigned long long>(
                    response.stats.answer_objects));
    for (size_t i = 0; i < response.rows.size(); ++i) {
      std::printf("  #%-3zu %s\n", i + 1,
                  RowToString(response.rows[i], parsed.value(),
                              store().dict())
                      .c_str());
    }
    if (response.rows.empty()) std::printf("  (no answers)\n");
  }

  // "submit <q1> ; <q2> ; ..." — the asynchronous serving path: every
  // query becomes one Engine::Submit, the admission layer forms windows
  // (max-size / max-delay), and the futures are collected afterwards.
  void SubmitCmd(const std::string& arg) {
    const std::vector<std::string> texts = SplitQueries(arg);
    if (texts.empty()) {
      std::printf("usage: submit <query> ; <query> ; ...\n");
      return;
    }
    std::vector<std::future<QueryResponse>> futures;
    futures.reserve(texts.size());
    for (const std::string& text : texts) {
      QueryRequest request = QueryRequest::FromText(text, k_);
      request.tag = text;
      futures.push_back(engine().Submit(std::move(request)));
    }
    // Close any window still waiting on max-delay so the demo returns
    // promptly.
    engine().admission().Flush();
    for (size_t q = 0; q < futures.size(); ++q) {
      QueryResponse response = futures[q].get();
      std::printf("[submit %zu/%zu] %s\n", q + 1, futures.size(),
                  response.tag.c_str());
      if (!response.ok()) {
        std::printf("  %s\n", response.status.ToString().c_str());
        continue;
      }
      auto parsed = ParseQuery(response.tag, store().dict());
      for (size_t i = 0; i < response.rows.size(); ++i) {
        std::printf("  #%-3zu %s\n", i + 1,
                    RowToString(response.rows[i], parsed.value(),
                                store().dict())
                        .c_str());
      }
      if (response.rows.empty()) std::printf("  (no answers)\n");
      std::printf("  window of %zu, queued %.3f ms\n", response.window_size,
                  response.admission_ms);
    }
    const AdmissionController::Stats stats = engine().admission().stats();
    std::printf(
        "admission: %llu submitted, %llu windows (%llu on size, %llu on "
        "delay, %llu on flush), max window %zu, %llu shared-scan hits\n",
        static_cast<unsigned long long>(stats.submitted),
        static_cast<unsigned long long>(stats.windows_dispatched),
        static_cast<unsigned long long>(stats.closed_on_size),
        static_cast<unsigned long long>(stats.closed_on_delay),
        static_cast<unsigned long long>(stats.closed_on_flush),
        stats.max_window_size,
        static_cast<unsigned long long>(stats.shared_scan_hits));
  }

  static std::vector<std::string> SplitQueries(const std::string& arg) {
    std::vector<std::string> texts;
    size_t start = 0;
    while (start <= arg.size()) {
      const size_t split = arg.find(';', start);
      const std::string piece(StripWhitespace(
          arg.substr(start, split == std::string::npos ? std::string::npos
                                                       : split - start)));
      if (!piece.empty()) texts.push_back(piece);
      if (split == std::string::npos) break;
      start = split + 1;
    }
    return texts;
  }

  void ExecuteBatchCmd(const std::string& arg) {
    const std::vector<std::string> texts = SplitQueries(arg);
    if (texts.empty()) {
      std::printf("usage: batch <query> ; <query> ; ...\n");
      return;
    }
    // Parse once up front: the parsed queries drive both the batch (so
    // execution and row printing agree on one Query object) and the
    // per-slot error reporting.
    std::vector<Result<Query>> parsed;
    std::vector<Query> good;
    parsed.reserve(texts.size());
    for (const std::string& text : texts) {
      parsed.push_back(ParseQuery(text, store().dict()));
      if (parsed.back().ok()) good.push_back(parsed.back().value());
    }
    BatchStats bs;
    BatchExecutor batch(&engine());
    const auto results = batch.Execute(good, k_, Strategy::kSpecQp, &bs);
    size_t next_good = 0;
    for (size_t q = 0; q < texts.size(); ++q) {
      std::printf("[batch %zu/%zu] %s\n", q + 1, texts.size(),
                  texts[q].c_str());
      if (!parsed[q].ok()) {
        std::printf("  %s\n", parsed[q].status().ToString().c_str());
        continue;
      }
      const auto& result = results[next_good++];
      for (size_t i = 0; i < result.rows.size(); ++i) {
        std::printf("  #%-3zu %s\n", i + 1,
                    RowToString(result.rows[i], parsed[q].value(),
                                store().dict())
                        .c_str());
      }
      if (result.rows.empty()) std::printf("  (no answers)\n");
    }
    std::printf(
        "batch: %zu queries, %zu executed (%zu distinct patterns); %llu "
        "lists resolved once (%llu derived, %llu base scans), %llu shared "
        "hits; prepare %.3f ms, plan %.3f ms, exec %.3f ms\n",
        bs.batch_size, bs.distinct_queries, bs.distinct_patterns,
        static_cast<unsigned long long>(bs.lists_resolved),
        static_cast<unsigned long long>(bs.lists_derived),
        static_cast<unsigned long long>(bs.base_scans),
        static_cast<unsigned long long>(bs.shared_scan_hits), bs.prepare_ms,
        bs.plan_ms, bs.exec_ms);
  }

  // "plan <query>" / "explain [trinit|norelax] <query>": Engine::Explain,
  // the request-API plan introspection (PLANGEN diagnostics for Spec-QP,
  // the static plan shape for the baselines).
  void Plan(const std::string& arg) {
    Strategy strategy = Strategy::kSpecQp;
    std::string text = arg;
    for (const auto& [word, s] :
         {std::pair<const char*, Strategy>{"trinit", Strategy::kTrinit},
          std::pair<const char*, Strategy>{"norelax", Strategy::kNoRelax}}) {
      const size_t len = std::string(word).size();
      if (text.rfind(word, 0) == 0 && text.size() > len &&
          std::isspace(static_cast<unsigned char>(text[len]))) {
        strategy = s;
        text = std::string(StripWhitespace(text.substr(len)));
        break;
      }
    }
    const QueryResponse response =
        engine().Explain(QueryRequest::FromText(text, k_, strategy));
    if (!response.ok()) {
      std::printf("%s\n", response.status.ToString().c_str());
      return;
    }
    if (strategy == Strategy::kSpecQp) {
      // PLANGEN diagnostics only exist for the speculative strategy; the
      // baselines get a static plan shape.
      std::printf("[%s] plan %s   (E_Q(k=%zu) = %s, est. %0.f answers)\n",
                  std::string(StrategyName(strategy)).c_str(),
                  response.plan.ToString().c_str(), k_,
                  DoubleToString(response.diagnostics.eq_k, 3).c_str(),
                  response.diagnostics.cardinality_estimate);
    } else {
      std::printf("[%s] plan %s   (static plan, no PLANGEN diagnostics)\n",
                  std::string(StrategyName(strategy)).c_str(),
                  response.plan.ToString().c_str());
    }
    for (const PatternDecision& d : response.diagnostics.decisions) {
      std::printf("  q%zu: %s E_Q'(1)=%s -> %s", d.pattern_index,
                  d.has_relaxations ? "has relaxations," : "no relaxations,",
                  DoubleToString(d.eq_prime_top, 3).c_str(),
                  d.relax ? "RELAX" : "join group");
      if (d.has_relaxations) {
        std::printf("   (confidence %s%s)",
                    DoubleToString(d.confidence, 3).c_str(),
                    d.bucket_disagreement ? ", below bucket resolution" : "");
      }
      std::printf("\n");
    }
    // Speculation preview: the plan-level confidence is the least
    // confident contested decision; an engine with speculate_threshold
    // above it would race the runner-up (that decision flipped).
    const PlanDiagnostics& diag = response.diagnostics;
    if (strategy == Strategy::kSpecQp && diag.has_runner_up) {
      std::printf(
          "  plan confidence %s (least confident: q%d); race candidates:\n"
          "    primary   %s\n"
          "    runner-up %s\n",
          DoubleToString(diag.plan_confidence, 3).c_str(),
          diag.least_confident_pattern, response.plan.ToString().c_str(),
          diag.runner_up.ToString().c_str());
    }
  }

  void ShowRules(const std::string& arg) {
    std::istringstream in(arg);
    std::string p;
    std::string o;
    in >> p >> o;
    if (o.empty()) {
      o = p;
      p = "rdf:type";
    }
    auto pid = store().dict().Find(p);
    auto oid = store().dict().Find(o);
    if (!pid.ok() || !oid.ok()) {
      std::printf("unknown term(s)\n");
      return;
    }
    const PatternKey key{kInvalidTermId, pid.value(), oid.value()};
    const auto rules = rules_->RulesFor(key);
    if (rules.empty()) std::printf("  (no rules)\n");
    for (const RelaxationRule& rule : rules) {
      std::printf("  %s\n", RuleToString(rule, store().dict()).c_str());
    }
    for (const ChainRelaxationRule& rule : rules_->ChainRulesFor(key)) {
      std::printf("  %s\n", ChainRuleToString(rule, store().dict()).c_str());
    }
  }

  void Save(const std::string& prefix) {
    if (prefix.empty()) {
      std::printf("usage: save <prefix>\n");
      return;
    }
    // Store file with whatever statistics this session has warmed — the
    // next `load` starts with the same catalog without recomputing.
    SaveStoreOptions options;
    options.stats = engine().catalog().Snapshot();
    options.stats_head_fraction = engine().catalog().head_fraction();
    Status s = SaveStore(store(), prefix + ".store", options);
    if (s.ok()) s = SaveRules(*rules_, prefix + ".rules");
    std::printf("%s\n", s.ok() ? "saved" : s.ToString().c_str());
  }

  void Load(const std::string& prefix) {
    if (prefix.empty()) {
      std::printf("usage: load <prefix>\n");
      return;
    }
    auto rules = LoadRules(prefix + ".rules");
    if (!rules.ok()) {
      std::printf("%s\n", rules.status().ToString().c_str());
      return;
    }
    // Swap the rules in first (the engine keeps a pointer to them), then
    // map the store. Shell users load arbitrary files, so pay for the
    // full verification pass (checksums + invariants on every section)
    // instead of trusting the bulk bytes.
    auto swapped = std::make_unique<RelaxationIndex>(std::move(rules).value());
    EngineOptions options;
    options.mmap_verify_all = true;
    auto opened = Engine::OpenFromPath(prefix + ".store", swapped.get(),
                                       options);
    if (!opened.ok()) {
      std::printf("%s\n", opened.status().ToString().c_str());
      return;
    }
    rules_ = std::move(swapped);
    opened_ = std::move(opened).value();
    engine_.reset();
    store_.reset();
    std::printf("loaded: %zu triples, %zu rules (%s, %zu stats patterns "
                "preloaded)\n",
                store().size(), rules_->total_rules(),
                opened_->mmap_backed() ? "mmap-backed" : "parsed",
                engine().catalog().size());
  }

  std::unique_ptr<TripleStore> store_;    // demo KG (generated)
  std::unique_ptr<RelaxationIndex> rules_;
  std::unique_ptr<Engine> engine_;        // engine over the demo KG
  std::optional<Engine::Opened> opened_;  // file-backed store + engine
  size_t k_ = 10;
};

}  // namespace

int main() {
  Shell shell;
  return shell.Loop();
}
