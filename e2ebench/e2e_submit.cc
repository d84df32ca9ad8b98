// e2e_submit: the end-to-end Engine::Submit benchmark.
//
//   e2e_submit --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              --workdir <dir> [--spans <path>]
//   e2e_submit --self-test
//
// Generates the XKG and Twitter stand-ins and their query workloads
// in-process, serves one workload through the public Engine API, checks
// every answer against a serial in-memory reference (and TriniT against the
// exhaustive oracle), and prints one JSON line of raw metrics as the last
// line of stdout. run.py builds this binary, attaches units and turns the
// trace spans into per-layer self times; see BASELINE.md for the workloads
// and what each metric means.
//
// The datasets and query sets are fixed (the generators' own seeds); --seed
// drives the request order (whole passes over the workload, each pass
// shuffled) and the Poisson arrival times, so every run carries the same
// query mix. Latency comes from an open loop on the windowed workload and
// from one request in flight on the immediate mix; throughput from a closed
// loop (32 in flight for the windowed workload).

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <future>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "checker.h"
#include "core/batch_executor.h"
#include "core/engine.h"
#include "core/exhaustive.h"
#include "core/plan_executor.h"
#include "datasets/twitter_generator.h"
#include "datasets/workload.h"
#include "datasets/xkg_generator.h"
#include "query/parser.h"
#include "rdf/posting_blocks.h"
#include "rdf/posting_list.h"
#include "rdf/sharded_store.h"
#include "rdf/store_io.h"
#include "relax/expansion.h"
#include "topk/exec_context.h"
#include "topk/top_k.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace specqp::e2e {
namespace {

using Clock = std::chrono::steady_clock;

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}
double Secs(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// num_threads = 2 is the calling thread plus 1 pool worker. In the windowed
// workload that worker, the admission dispatcher (which runs a batch's tasks
// too) and the load generator are at most 3 busy threads, so a 4-core
// machine keeps a core for everything else. With num_threads = 3 all 4 were
// busy, and the windowed workloads ran slower, not faster.
constexpr int kEngineThreads = 2;
// Threads that compute the reference answers during set-up, each with its
// own serial engines.
constexpr int kReferenceThreads = 3;
// Requests in flight in the closed-loop capacity phase of the windowed
// workloads (two full admission windows).
constexpr size_t kOutstanding = 32;
// A timed run of the windowed workload is cut into rounds, each a capacity
// phase (this share of the round) then a latency phase, so both phases
// sample the whole run and a slow stretch of the machine (its speed drifts
// by some 15% over about 10 s) moves only part of each.
constexpr int kRounds = 3;
constexpr double kCapacityShare = 1.0 / 3.0;
// TriniT against the oracle: scores are sums taken in a different order,
// so only the last bits may differ.
constexpr double kOracleRelTol = 1e-9;
// The open loop's arrival rate. Open-loop windows hold 1-3 requests, and a
// window runs its batch before the dispatcher takes the next, so the open
// loop saturates well below the closed-loop 170-220 qps (4-core x86-64).
// Latency at a higher load magnifies every slow stretch of the machine
// through queueing: at 50 qps the p50 of five seeds ranged 9.5-15.9 ms.
constexpr double kOpenLoopRate = 25.0;
// Posting-cache budget of the windowed workload: about half of the 0.9 MB
// working set XKG's warm pass leaves resident, so the cache evicts.
constexpr size_t kWindowCacheBudget = 450 * 1024;
constexpr uint32_t kWindowShards = 8;
// A run whose generator sends later than this at p99 did not offer the
// load it claims; it is reported as invalid.
constexpr double kMaxLateMsP99 = 5.0;

// --- spans ------------------------------------------------------------------

// In-memory span log: one record per timed call into a layer, written out
// at exit. Parent 0 is the root.
class Tracer {
 public:
  Tracer() { spans_.reserve(1 << 16); }

  uint32_t Add(const char* layer, uint32_t parent, uint64_t request,
               const char* attr, Clock::time_point start,
               Clock::time_point end) {
    spans_.push_back(Span{static_cast<uint32_t>(spans_.size() + 1), parent,
                          request, layer, attr, start, end});
    return spans_.back().id;
  }
  // Starts the clock after the record is stored, so a growing log is not
  // charged to the span.
  uint32_t Open(const char* layer, uint32_t parent, uint64_t request,
                const char* attr = "-") {
    const uint32_t id = Add(layer, parent, request, attr, {}, {});
    spans_.back().start = Clock::now();
    return id;
  }
  void Close(uint32_t id) { spans_[id - 1].end = Clock::now(); }

  bool Write(const std::string& path, Clock::time_point epoch) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "id parent request layer attr start_ns end_ns\n");
    for (const Span& s : spans_) {
      std::fprintf(
          f, "%u %u %llu %s %s %lld %lld\n", s.id, s.parent,
          static_cast<unsigned long long>(s.request), s.layer, s.attr,
          static_cast<long long>(
              std::chrono::nanoseconds(s.start - epoch).count()),
          static_cast<long long>(
              std::chrono::nanoseconds(s.end - epoch).count()));
    }
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    uint32_t id;
    uint32_t parent;
    uint64_t request;
    const char* layer;
    const char* attr;
    Clock::time_point start;
    Clock::time_point end;
  };
  std::vector<Span> spans_;
};

// Times one call as a child span of `parent`.
template <typename Fn>
auto Traced(Tracer* tracer, const char* layer, uint32_t parent,
            uint64_t request, const char* attr, Fn&& fn) {
  const uint32_t id = tracer->Open(layer, parent, request, attr);
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    tracer->Close(id);
  } else {
    auto result = fn();
    tracer->Close(id);
    return result;
  }
}

// --- datasets and references ------------------------------------------------

struct Dataset {
  std::string name;
  std::unique_ptr<XkgDataset> xkg;
  std::unique_ptr<TwitterDataset> twitter;
  const TripleStore* store = nullptr;  // in memory
  const RelaxationIndex* rules = nullptr;
  std::vector<std::string> texts;  // the workload as query text
  std::vector<Query> queries;      // `texts` parsed against `store`
  std::vector<ExhaustiveEvaluator::EvalResult> truth;  // oracle, per query
};

void ParseWorkload(const std::vector<Query>& generated, Dataset* ds) {
  for (const Query& q : generated) {
    ds->texts.push_back(q.ToString(ds->store->dict()));
    auto parsed = ParseQuery(ds->texts.back(), ds->store->dict());
    SPECQP_CHECK(parsed.ok()) << parsed.status().ToString();
    ds->queries.push_back(std::move(parsed).value());
  }
}

// The repo's benchmark datasets (same generator configs as bench/).
std::unique_ptr<Dataset> MakeXkg(size_t queries_per_size = 22) {
  auto ds = std::make_unique<Dataset>();
  ds->name = "xkg";
  ds->xkg = std::make_unique<XkgDataset>(GenerateXkg(XkgConfig{}));
  ds->store = &ds->xkg->store;
  ds->rules = &ds->xkg->rules;
  XkgWorkloadConfig config;
  config.seed = 71;
  config.queries_per_size = queries_per_size;
  config.min_relaxations = 10;
  ParseWorkload(MakeXkgWorkload(*ds->xkg, config), ds.get());
  return ds;
}

std::unique_ptr<Dataset> MakeTwitter() {
  auto ds = std::make_unique<Dataset>();
  ds->name = "twitter";
  ds->twitter =
      std::make_unique<TwitterDataset>(GenerateTwitter(TwitterConfig{}));
  ds->store = &ds->twitter->store;
  ds->rules = &ds->twitter->rules;
  TwitterWorkloadConfig config;
  config.seed = 73;
  config.queries_per_size = 25;
  config.min_relaxations = 5;
  ParseWorkload(MakeTwitterWorkload(*ds->twitter, config), ds.get());
  return ds;
}

// One (dataset, query, k, strategy) combination of a workload, with its
// reference answer and the oracle-derived quality of that answer.
struct Key {
  size_t ds = 0;
  size_t query = 0;
  size_t k = 10;
  Strategy strategy = Strategy::kSpecQp;
  std::vector<ScoredRow> rows;    // serial in-memory kImmediate reference
  double precision = 0.0;         // of `rows` against the oracle
  std::vector<size_t> required;   // oracle's required relaxations at k
};

QueryResponse SubmitImmediate(Engine& engine, const Query& query, size_t k,
                              Strategy strategy) {
  QueryRequest request = QueryRequest::FromQuery(query, k, strategy);
  request.admission = QueryRequest::Admission::kImmediate;
  return engine.Submit(std::move(request)).get();
}

// Fills every key's reference rows from serial in-memory engines and checks
// TriniT references against the oracle. Returns false on any mismatch. The
// keys are split over kReferenceThreads threads, each with its own serial
// engines, so set-up stays short.
bool ComputeReferences(std::vector<std::unique_ptr<Dataset>>& datasets,
                       std::vector<Key>* keys, std::string* error) {
  for (auto& ds : datasets) {
    ExhaustiveEvaluator oracle(ds->store, ds->rules);
    for (const Query& q : ds->queries) ds->truth.push_back(oracle.Evaluate(q));
  }
  std::vector<std::string> errors(kReferenceThreads);
  auto work = [&](size_t slice) {
    std::vector<std::unique_ptr<Engine>> serial;
    for (auto& ds : datasets) {
      EngineOptions options;
      options.num_threads = 1;
      serial.push_back(std::make_unique<Engine>(ds->store, ds->rules, options));
    }
    for (size_t i = slice; i < keys->size(); i += kReferenceThreads) {
      Key& key = (*keys)[i];
      const Dataset& ds = *datasets[key.ds];
      const auto& truth = ds.truth[key.query];
      QueryResponse ref = SubmitImmediate(
          *serial[key.ds], ds.queries[key.query], key.k, key.strategy);
      std::string why;
      if (!ref.ok()) {
        why = "reference failed: " + ref.status.ToString();
      } else if (key.strategy == Strategy::kTrinit &&
                 !ScoresMatchOracle(truth, key.k, ref.rows, kOracleRelTol,
                                    &why)) {
        why = "TriniT vs oracle: " + why;
      }
      if (!why.empty()) {
        errors[slice] = StrFormat("%s query %zu k=%zu: %s", ds.name.c_str(),
                                  key.query, key.k, why.c_str());
        return;
      }
      key.rows = std::move(ref.rows);
      key.precision = PrecisionAtK(truth, key.k, key.rows);
      key.required = truth.RequiredRelaxations(key.k);
    }
  };
  std::vector<std::thread> threads;
  for (size_t slice = 0; slice < errors.size(); ++slice) {
    threads.emplace_back(work, slice);
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& e : errors) {
    if (!e.empty()) {
      *error = e;
      return false;
    }
  }
  return true;
}

// --- response accounting ----------------------------------------------------

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// Harrell-Davis estimate of the p-quantile: a Beta(p(n+1), (1-p)(n+1))
// weighted mean of all order statistics. Each query of a pass has its own
// latency level, with gaps of up to 20% between neighbours near the median;
// the plain sample quantile jumps across such a gap when one request moves,
// this one slides.
double SmoothQuantile(std::vector<double> v, double p) {
  if (v.size() < 2) return Percentile(std::move(v), p);
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const double a = p * (n + 1.0);
  const double b = (1.0 - p) * (n + 1.0);
  // Log density at the midpoint of each order statistic's interval, then
  // normalised; the Beta density is smooth on that scale.
  std::vector<double> log_w(v.size());
  double top = -HUGE_VAL;
  for (size_t i = 0; i < v.size(); ++i) {
    const double x = (static_cast<double>(i) + 0.5) / n;
    log_w[i] = (a - 1.0) * std::log(x) + (b - 1.0) * std::log1p(-x);
    top = std::max(top, log_w[i]);
  }
  double sum = 0.0;
  double weighted = 0.0;
  for (size_t i = 0; i < v.size(); ++i) {
    const double w = std::exp(log_w[i] - top);
    sum += w;
    weighted += w * v[i];
  }
  return weighted / sum;
}

// The open loop's p99: the median over consecutive slices of `slice`
// requests of each slice's p99. A single stretch of machine noise then moves
// one slice, not the reported tail. Over 12-pass stretches of two 90 s XKG
// runs, one-pass slices spread 0.05, three-pass slices 0.10 and the pooled
// p99 0.11.
double SlicedP99(const std::vector<double>& latency, size_t slice) {
  std::vector<double> p99s;
  for (size_t begin = 0; begin + slice <= latency.size(); begin += slice) {
    p99s.push_back(SmoothQuantile(
        std::vector<double>(latency.begin() + begin,
                            latency.begin() + begin + slice),
        0.99));
  }
  return p99s.size() >= 3 ? Percentile(p99s, 0.5)
                          : SmoothQuantile(latency, 0.99);
}

struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_error;
  std::vector<double> latency_ms;
  std::vector<size_t> latency_key;  // key index of each latency (live loops)
  std::vector<double> admission_ms;
  double window_size_sum = 0.0;
  ExecStats exec;        // summed over correct responses
  uint64_t answers = 0;  // rows returned
  uint64_t correct = 0;
  uint64_t spec = 0;     // correct Spec-QP responses
  double precision_sum = 0.0;
  uint64_t prediction_exact = 0;
  uint64_t patterns_relaxed = 0;

  // Counts one response: a non-OK status, or rows that are not
  // bit-identical to the key's reference, is a failure.
  void Record(const Key& key, const QueryResponse& response,
              double latency) {
    ++attempted;
    latency_ms.push_back(latency);
    std::string why;
    if (!response.ok()) {
      why = response.status.ToString();
    } else if (!RowsBitIdentical(key.rows, response.rows, &why)) {
      why = "wrong answer: " + why;
    }
    if (!why.empty()) {
      ++failed;
      if (first_error.empty()) {
        first_error = StrFormat("ds %zu query %zu k=%zu %s: %s", key.ds,
                                key.query, key.k,
                                std::string(StrategyName(key.strategy)).c_str(),
                                why.c_str());
      }
      return;
    }
    ++correct;
    admission_ms.push_back(response.admission_ms);
    window_size_sum += static_cast<double>(response.window_size);
    exec += response.stats;
    answers += response.rows.size();
    if (key.strategy == Strategy::kSpecQp) {
      ++spec;
      precision_sum += key.precision;
      std::vector<size_t> predicted = response.plan.singletons;
      std::sort(predicted.begin(), predicted.end());
      prediction_exact += predicted == key.required ? 1 : 0;
      patterns_relaxed += response.plan.num_relaxed();
    }
  }

  void MergeCounts(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
    if (first_error.empty()) first_error = other.first_error;
  }
};

// --- workloads --------------------------------------------------------------

struct WorkloadSpec {
  std::string name;
  bool xkg = false;
  bool twitter = false;
  bool windowed = false;   // windowed Submit from a bundle vs kImmediate
  bool open_loop = false;  // Poisson arrivals vs one request in flight
  std::vector<size_t> ks;
  std::vector<Strategy> strategies;
};

bool FindWorkload(const std::string& name, WorkloadSpec* spec) {
  if (name == "xkg_window_bundle8") {
    *spec = {name, true, false, true, true, {10}, {Strategy::kSpecQp}};
  } else if (name == "mixed_immediate_mem") {
    *spec = {name, true, true, false, false, {10, 15, 20},
             {Strategy::kSpecQp, Strategy::kTrinit}};
  } else {
    return false;
  }
  return true;
}

// One dataset as the benchmark serves it.
struct Served {
  Engine::Opened opened;          // windowed: mapped bundle
  std::unique_ptr<Engine> owned;  // immediate: in-memory engine
  Engine* engine = nullptr;
  std::string path;
  EngineOptions options;
};

EngineOptions ServingOptions(const WorkloadSpec& spec) {
  EngineOptions options;
  options.num_threads = kEngineThreads;
  if (spec.windowed) options.cache_budget_bytes = kWindowCacheBudget;
  return options;
}

// The request sequence: whole passes over the workload's keys, each pass
// in a fresh seeded order.
class PassOrder {
 public:
  PassOrder(size_t num_keys, uint64_t seed) : n_(num_keys), rng_(seed) {}
  std::vector<size_t> Next() {
    std::vector<size_t> pass(n_);
    for (size_t i = 0; i < n_; ++i) pass[i] = i;
    for (size_t i = n_; i > 1; --i) {
      std::swap(pass[i - 1], pass[rng_() % i]);
    }
    return pass;
  }

 private:
  size_t n_;
  std::mt19937_64 rng_;
};

// Poisson arrival offsets for `count` requests at `rate` per second.
std::vector<Clock::duration> PoissonOffsets(size_t count, double rate,
                                            uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Clock::duration> offsets;
  double t = 0.0;
  for (size_t i = 0; i < count; ++i) {
    offsets.push_back(std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(t)));
    const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
    t += -std::log1p(-u) / rate;
  }
  return offsets;
}

struct Pending {
  size_t key;
  uint64_t request;
  Clock::time_point due;   // when it was scheduled to be sent
  Clock::time_point sent;  // Submit call start and return
  Clock::time_point submitted;
  std::future<QueryResponse> response;
};

class Bench {
 public:
  Bench(WorkloadSpec spec, uint64_t seed, std::string workdir)
      : spec_(std::move(spec)), seed_(seed), workdir_(std::move(workdir)) {}

  bool Setup(std::string* error);
  bool RunTimed(double seconds, std::map<std::string, double>* metrics,
                std::string* error);
  bool RunTraced(double seconds, Tracer* tracer,
                 std::map<std::string, double>* metrics, std::string* error);
  std::string EnvironmentJson(double late_ms_p99) const;
  Clock::time_point setup_done() const { return setup_done_; }

 private:
  Engine& EngineFor(const Key& key) { return *served_[key.ds].engine; }
  QueryRequest Request(const Key& key, bool text) const;

  // Closed loop: keeps `outstanding` requests in flight over whole passes
  // until `min_seconds` have passed, or for exactly `passes` passes when
  // non-zero. Appends to `pass_qps` (when given) the completions per second
  // of every pass's worth of completions while the loop was full, or of the
  // whole full stretch when it held less than a pass.
  void ClosedLoop(PassOrder* order, size_t outstanding, double min_seconds,
                  size_t passes, Tally* tally, Tracer* tracer,
                  size_t* passes_run, std::vector<double>* pass_qps);
  // Open loop over `sequence` with Poisson arrivals (windowed only).
  void OpenLoop(const std::vector<size_t>& sequence,
                const std::vector<Clock::duration>& offsets, Tally* tally,
                std::vector<double>* late_ms, Tracer* tracer);
  // Records a completed request (and its spans when tracing).
  void Complete(Pending& p, Tally* tally, Tracer* tracer);

  // Whole passes lasting about `seconds` at the open-loop rate, with Poisson
  // offsets drawn from the run's seed and `stream`.
  std::vector<size_t> OpenLoopSequence(PassOrder* order, double seconds,
                                       uint64_t stream,
                                       std::vector<Clock::duration>* offsets);

  // Traced replay of one pass, layer by layer (see RunTraced).
  bool Replay(const std::vector<size_t>& pass, double window_size,
              Tracer* tracer, std::map<std::string, double>* m,
              std::string* error);

  WorkloadSpec spec_;
  uint64_t seed_;
  std::string workdir_;
  std::vector<std::unique_ptr<Dataset>> datasets_;
  std::vector<Key> keys_;
  std::vector<Served> served_;
  Clock::time_point setup_done_;
};

QueryRequest Bench::Request(const Key& key, bool text) const {
  const Dataset& ds = *datasets_[key.ds];
  QueryRequest request =
      text ? QueryRequest::FromText(ds.texts[key.query], key.k, key.strategy)
           : QueryRequest::FromQuery(ds.queries[key.query], key.k,
                                     key.strategy);
  if (!spec_.windowed) request.admission = QueryRequest::Admission::kImmediate;
  return request;
}

bool Bench::Setup(std::string* error) {
  auto phase = Clock::now();
  auto log_phase = [&](const char* what) {
    std::fprintf(stderr, "[e2e] setup %s: %.2f s\n", what, Secs(Clock::now() - phase));
    phase = Clock::now();
  };
  if (spec_.xkg) datasets_.push_back(MakeXkg());
  if (spec_.twitter) datasets_.push_back(MakeTwitter());
  log_phase("generate");
  for (size_t d = 0; d < datasets_.size(); ++d) {
    for (size_t q = 0; q < datasets_[d]->queries.size(); ++q) {
      for (size_t k : spec_.ks) {
        for (Strategy strategy : spec_.strategies) {
          Key key;
          key.ds = d;
          key.query = q;
          key.k = k;
          key.strategy = strategy;
          keys_.push_back(std::move(key));
        }
      }
    }
  }
  if (!ComputeReferences(datasets_, &keys_, error)) return false;
  log_phase("references");

  const EngineOptions options = ServingOptions(spec_);
  for (auto& ds : datasets_) {
    Served served;
    served.options = options;
    if (spec_.windowed) {
      served.path = workdir_ + "/" + ds->name + ".bndl";
      ShardBundleOptions bundle;
      bundle.shard_count = kWindowShards;
      const Status written = WriteShardBundle(*ds->store, served.path, bundle);
      if (!written.ok()) {
        *error = "store write: " + written.ToString();
        return false;
      }
      auto opened = Engine::OpenFromPath(served.path, ds->rules, options);
      if (!opened.ok()) {
        *error = "open: " + opened.status().ToString();
        return false;
      }
      served.opened = std::move(opened).value();
      served.engine = served.opened.engine.get();
    } else {
      served.owned = std::make_unique<Engine>(ds->store, ds->rules, options);
      served.engine = served.owned.get();
    }
    served_.push_back(std::move(served));
  }

  log_phase("store");
  // Untimed warm-up pass: fills the posting caches and planner memos.
  Tally warm;
  if (spec_.windowed) {
    PassOrder warm_order(keys_.size(), seed_ ^ 0x5741524DULL);
    size_t passes = 0;
    ClosedLoop(&warm_order, kOutstanding, 0.0, 1, &warm, nullptr, &passes,
               nullptr);
  } else {
    // One execution per (query, strategy) at the smallest k reads every
    // posting list, statistic and partition memo the larger k read; the
    // other keys only add their plans.
    for (const Key& key : keys_) {
      if (key.k == spec_.ks.front()) {
        warm.Record(key, EngineFor(key).Submit(Request(key, false)).get(), 0.0);
      } else if (key.strategy == Strategy::kSpecQp) {
        (void)EngineFor(key).Explain(Request(key, false));
      }
    }
  }
  if (warm.failed > 0) {
    *error = "warm-up: " + warm.first_error;
    return false;
  }
  log_phase("warm-up");
  setup_done_ = Clock::now();
  return true;
}

void Bench::Complete(Pending& p, Tally* tally, Tracer* tracer) {
  const Key& key = keys_[p.key];
  QueryResponse response = p.response.get();
  const auto done = Clock::now();
  tally->Record(key, response, Ms(done - p.due));
  tally->latency_key.push_back(p.key);
  if (tracer != nullptr) {
    const char* strategy = StrategyName(key.strategy).data();
    const uint32_t id =
        tracer->Add("request_e2e", 0, p.request, strategy, p.due, done);
    tracer->Add("submit", id, p.request, strategy, p.sent, p.submitted);
  }
}

void Bench::ClosedLoop(PassOrder* order, size_t outstanding,
                       double min_seconds, size_t passes, Tally* tally,
                       Tracer* tracer, size_t* passes_run,
                       std::vector<double>* pass_qps) {
  std::deque<Pending> inflight;
  const auto start = Clock::now();
  uint64_t completed = 0;
  uint64_t request = 0;
  size_t sampled = 0;
  auto pass_start = start;
  bool draining = false;
  auto collect = [&] {
    Complete(inflight.front(), tally, tracer);
    inflight.pop_front();
    if (++completed % keys_.size() == 0 && !draining) {
      const auto now = Clock::now();
      // The first pass of a loop with many in flight starts from an empty
      // window and a cache the previous phase left; it ran up to a third
      // slower than the next (Twitter bundle) and is not a sample.
      if (pass_qps != nullptr &&
          (outstanding == 1 || completed > keys_.size())) {
        pass_qps->push_back(static_cast<double>(keys_.size()) /
                            Secs(now - pass_start));
        ++sampled;
      }
      pass_start = now;
    }
  };
  // A timed loop starts another pass when it would end less than half a
  // pass after `min_seconds`, so it runs over or short by at most half a
  // pass (the immediate mix's passes take some 15 s).
  Clock::duration last_pass{};
  *passes_run = 0;
  while (passes != 0 ? *passes_run < passes
                     : (*passes_run == 0 ||
                        Secs(Clock::now() - start + last_pass / 2) <
                            min_seconds)) {
    const auto pass_begin = Clock::now();
    for (size_t key : order->Next()) {
      if (inflight.size() >= outstanding) collect();
      QueryRequest r = Request(keys_[key], /*text=*/spec_.windowed);
      const auto sent = Clock::now();
      auto response = EngineFor(keys_[key]).Submit(std::move(r));
      inflight.push_back(Pending{key, request++, sent, sent, Clock::now(),
                                 std::move(response)});
    }
    last_pass = Clock::now() - pass_begin;
    ++*passes_run;
  }
  // The drain of the last requests runs below saturation and is left out.
  const double elapsed = Secs(Clock::now() - start);
  const uint64_t saturated = completed;
  draining = true;
  while (!inflight.empty()) collect();
  if (sampled == 0 && pass_qps != nullptr && elapsed > 0.0) {
    pass_qps->push_back(static_cast<double>(saturated) / elapsed);
  }
}

void Bench::OpenLoop(const std::vector<size_t>& sequence,
                     const std::vector<Clock::duration>& offsets, Tally* tally,
                     std::vector<double>* late_ms, Tracer* tracer) {
  // One thread both sends on schedule and timestamps completions: with a
  // single (k, strategy) window key, windows dispatch in submit order, so
  // responses complete in FIFO order and waiting on the oldest is exact.
  std::deque<Pending> inflight;
  const auto t0 = Clock::now() + std::chrono::milliseconds(5);
  size_t next = 0;
  while (next < sequence.size() || !inflight.empty()) {
    if (next < sequence.size()) {
      const auto due = t0 + offsets[next];
      if (Clock::now() >= due) {
        const Key& key = keys_[sequence[next]];
        QueryRequest request = Request(key, /*text=*/true);
        const auto sent = Clock::now();
        late_ms->push_back(Ms(sent - due));
        auto response = EngineFor(key).Submit(std::move(request));
        inflight.push_back(Pending{sequence[next], next, due, sent,
                                   Clock::now(), std::move(response)});
        ++next;
        continue;
      }
      if (inflight.empty()) {
        std::this_thread::sleep_until(due);
        continue;
      }
      if (inflight.front().response.wait_until(due) !=
          std::future_status::ready) {
        continue;
      }
    }
    Complete(inflight.front(), tally, tracer);
    inflight.pop_front();
  }
}

std::vector<size_t> Bench::OpenLoopSequence(
    PassOrder* order, double seconds, uint64_t stream,
    std::vector<Clock::duration>* offsets) {
  const size_t passes = std::max<size_t>(
      1, static_cast<size_t>(std::lround(seconds * kOpenLoopRate /
                                         static_cast<double>(keys_.size()))));
  std::vector<size_t> sequence;
  for (size_t p = 0; p < passes; ++p) {
    for (size_t key : order->Next()) sequence.push_back(key);
  }
  *offsets = PoissonOffsets(sequence.size(), kOpenLoopRate,
                            seed_ * 2654435761ULL + 1 + stream);
  return sequence;
}

// The median key's latency: the Harrell-Davis median, over the workload's
// keys, of each key's median latency. A request's latency moves with the
// posting lists the requests before it left in the cache (Twitter's per-pass
// sample median ranged 17-30 ms within one run), so taking each key's own
// level first takes the order out. On 28 Twitter passes this gave about 30%
// less spread over random 9-pass subsets than the pooled sample median.
double MedianKeyLatency(const Tally& tally) {
  SPECQP_CHECK(tally.latency_key.size() == tally.latency_ms.size());
  std::map<size_t, std::vector<double>> by_key;
  for (size_t i = 0; i < tally.latency_key.size(); ++i) {
    by_key[tally.latency_key[i]].push_back(tally.latency_ms[i]);
  }
  std::vector<double> levels;
  for (auto& [key, latency] : by_key) {
    levels.push_back(Percentile(std::move(latency), 0.5));
  }
  return SmoothQuantile(std::move(levels), 0.5);
}

void PutEndToEnd(const Tally& tally, std::map<std::string, double>* m) {
  (*m)["p50_ms"] = MedianKeyLatency(tally);
  (*m)["p99_ms"] = SmoothQuantile(tally.latency_ms, 0.99);
  (*m)["answer_objects_per_query"] =
      tally.correct == 0 ? 0.0
                         : static_cast<double>(tally.exec.answer_objects) /
                               static_cast<double>(tally.correct);
  (*m)["precision_at_k"] =
      tally.spec == 0 ? 0.0
                      : tally.precision_sum / static_cast<double>(tally.spec);
  (*m)["prediction_exact_ratio"] =
      tally.spec == 0 ? 0.0
                      : static_cast<double>(tally.prediction_exact) /
                            static_cast<double>(tally.spec);
}

bool Bench::RunTimed(double seconds, std::map<std::string, double>* m,
                     std::string* error) {
  Tally total;
  Tally capacity;
  std::vector<double> capacity_qps;
  std::vector<double> latency_qps;
  std::vector<double> late_ms;
  PassOrder capacity_order(keys_.size(), seed_ ^ 0x434150ULL);
  PassOrder order(keys_.size(), seed_);
  const int rounds = spec_.windowed ? kRounds : 1;
  const double round_seconds = seconds / rounds;
  const auto start = Clock::now();
  for (int round = 0; round < rounds; ++round) {
    size_t passes = 0;
    if (spec_.windowed) {
      // Saturation throughput with two full admission windows in flight.
      ClosedLoop(&capacity_order, kOutstanding,
                 kCapacityShare * round_seconds, 0, &capacity, nullptr,
                 &passes, &capacity_qps);
    }
    // The latency phase runs to the end of the round, so a phase that ran
    // over by part of a pass is made up within the run.
    const double latency_seconds =
        std::max(0.0, (round + 1) * round_seconds - Secs(Clock::now() - start));
    if (spec_.open_loop) {
      std::vector<Clock::duration> offsets;
      const std::vector<size_t> sequence =
          OpenLoopSequence(&order, latency_seconds, round, &offsets);
      OpenLoop(sequence, offsets, &total, &late_ms, nullptr);
    } else {
      ClosedLoop(&order, 1, latency_seconds, 0, &total, nullptr, &passes,
                 &latency_qps);
    }
  }
  (*m)["max_qps"] =
      Percentile(spec_.windowed ? capacity_qps : latency_qps, 0.5);
  PutEndToEnd(total, m);
  if (spec_.open_loop) {
    (*m)["gen_late_ms_p99"] = Percentile(late_ms, 0.99);
    (*m)["p99_ms"] = SlicedP99(total.latency_ms, keys_.size());
  }
  total.MergeCounts(capacity);
  (*m)["attempted"] = static_cast<double>(total.attempted);
  (*m)["failed"] = static_cast<double>(total.failed);
  (*m)["ok_ratio"] =
      total.attempted == 0
          ? 0.0
          : 1.0 - static_cast<double>(total.failed) /
                      static_cast<double>(total.attempted);
  if (total.failed > 0) *error = total.first_error;
  return total.failed == 0;
}

// --- traced run ---------------------------------------------------------------

// Distinct pattern keys a workload reads: every original pattern plus its
// relaxations.
std::vector<PatternKey> WorkloadPatternKeys(const Dataset& ds) {
  std::set<std::tuple<TermId, TermId, TermId>> seen;
  std::vector<PatternKey> keys;
  auto add = [&](const PatternKey& key) {
    if (seen.insert({key.s, key.p, key.o}).second) keys.push_back(key);
  };
  for (const Query& q : ds.queries) {
    for (const TriplePattern& pattern : q.patterns()) {
      add(pattern.Key());
      for (const PatternKey& relaxed :
           ExpandPattern(*ds.rules, pattern.Key()).relaxed) {
        add(relaxed);
      }
    }
  }
  return keys;
}

double ScanAll(const PostingList* list, uint64_t* entries) {
  BlockIterator it(list);
  double sum = 0.0;
  while (!it.AtEnd()) {
    sum += it.Entry().score;
    it.Advance();
    ++*entries;
  }
  return sum;
}

bool Bench::RunTraced(double seconds, Tracer* tracer,
                      std::map<std::string, double>* m, std::string* error) {
  // Phases 1 and 2 replay the same seeded request sequence through Submit,
  // untraced then with a span per request; the p50 gap is the tracing
  // overhead. Phase 3 replays one pass layer by layer.
  std::vector<AdmissionController::Stats> admission_before;
  std::vector<uint64_t> hits_before, misses_before, evictions_before;
  for (Served& s : served_) {
    if (spec_.windowed) admission_before.push_back(s.engine->admission().stats());
    hits_before.push_back(s.engine->postings().hits());
    misses_before.push_back(s.engine->postings().misses());
    evictions_before.push_back(s.engine->postings().evictions());
  }

  Tally untraced;
  Tally traced;
  std::vector<double> late_ms;
  if (spec_.open_loop) {
    PassOrder order(keys_.size(), seed_);
    std::vector<Clock::duration> offsets;
    const std::vector<size_t> sequence =
        OpenLoopSequence(&order, 0.25 * seconds, 0, &offsets);
    OpenLoop(sequence, offsets, &untraced, &late_ms, nullptr);
    OpenLoop(sequence, offsets, &traced, &late_ms, tracer);
  } else {
    PassOrder order_a(keys_.size(), seed_);
    PassOrder order_b(keys_.size(), seed_);
    size_t passes = 0;
    ClosedLoop(&order_a, 1, 0.25 * seconds, 0, &untraced, nullptr, &passes,
               nullptr);
    size_t passes_b = 0;
    ClosedLoop(&order_b, 1, 0.0, passes, &traced, tracer, &passes_b, nullptr);
  }
  Tally live = untraced;
  live.MergeCounts(traced);
  (*m)["attempted"] = static_cast<double>(live.attempted);
  (*m)["failed"] = static_cast<double>(live.failed);
  if (live.failed > 0) {
    *error = live.first_error;
    return false;
  }
  const double p50_untraced = Percentile(untraced.latency_ms, 0.5);
  (*m)["trace.overhead_ratio"] =
      p50_untraced > 0.0
          ? Percentile(traced.latency_ms, 0.5) / p50_untraced - 1.0
          : 0.0;
  (*m)["gen.late_ms_p99"] = Percentile(late_ms, 0.99);

  // Admission (windowed only; immediate requests bypass it).
  std::vector<double> admission_ms = untraced.admission_ms;
  admission_ms.insert(admission_ms.end(), traced.admission_ms.begin(),
                      traced.admission_ms.end());
  const uint64_t live_correct = untraced.correct + traced.correct;
  const double window_mean =
      live_correct == 0 ? 0.0
                        : (untraced.window_size_sum + traced.window_size_sum) /
                              static_cast<double>(live_correct);
  (*m)["admission.wait_ms_p50"] = spec_.windowed ? Percentile(admission_ms, 0.5) : 0.0;
  (*m)["admission.wait_ms_p99"] = spec_.windowed ? Percentile(admission_ms, 0.99) : 0.0;
  (*m)["admission.window_size_mean"] = window_mean;
  double closed_on_delay = 0, windows = 0, shed = 0;
  for (size_t i = 0; i < admission_before.size(); ++i) {
    const auto after = served_[i].engine->admission().stats();
    closed_on_delay += static_cast<double>(after.closed_on_delay -
                                           admission_before[i].closed_on_delay);
    windows += static_cast<double>(after.windows_dispatched -
                                   admission_before[i].windows_dispatched);
    shed += static_cast<double>(
        after.shed_queue_full + after.shed_deadline -
        admission_before[i].shed_queue_full - admission_before[i].shed_deadline);
  }
  (*m)["admission.closed_on_delay_ratio"] =
      windows > 0 ? closed_on_delay / windows : 0.0;
  (*m)["admission.shed"] = shed;

  // Execution counters of the live responses.
  ExecStats exec = untraced.exec;
  exec += traced.exec;
  const double n = static_cast<double>(live_correct);
  const double answers = static_cast<double>(untraced.answers + traced.answers);
  (*m)["exec.scan_rows"] = static_cast<double>(exec.scan_rows) / n;
  (*m)["exec.merge_rows"] = static_cast<double>(exec.merge_rows) / n;
  (*m)["exec.join_results"] = static_cast<double>(exec.join_results) / n;
  (*m)["exec.join_hash_probes"] = static_cast<double>(exec.join_hash_probes) / n;
  (*m)["exec.rows_per_answer"] =
      answers > 0 ? static_cast<double>(exec.scan_rows) / answers : 0.0;
  (*m)["exec.refill_rounds"] =
      static_cast<double>(exec.parallel_refill_rounds) / n;
  (*m)["blocks.decoded_per_query"] = static_cast<double>(exec.blocks_decoded) / n;
  const double blocks = static_cast<double>(exec.blocks_decoded + exec.blocks_skipped);
  (*m)["blocks.skipped_ratio"] =
      blocks > 0 ? static_cast<double>(exec.blocks_skipped) / blocks : 0.0;
  (*m)["spec.plans_raced"] = static_cast<double>(exec.plans_raced);
  (*m)["spec.replans"] = static_cast<double>(exec.replans_triggered);
  const uint64_t spec = untraced.spec + traced.spec;
  (*m)["plan.patterns_relaxed_mean"] =
      spec == 0 ? 0.0
                : static_cast<double>(untraced.patterns_relaxed +
                                      traced.patterns_relaxed) /
                      static_cast<double>(spec);

  // Posting cache over the two live phases.
  double hits = 0, misses = 0, evictions = 0, resident = 0;
  for (size_t i = 0; i < served_.size(); ++i) {
    const PostingListCache& cache = served_[i].engine->postings();
    hits += static_cast<double>(cache.hits() - hits_before[i]);
    misses += static_cast<double>(cache.misses() - misses_before[i]);
    evictions += static_cast<double>(cache.evictions() - evictions_before[i]);
    resident += static_cast<double>(cache.bytes());
  }
  (*m)["cache.hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  (*m)["cache.evictions"] = evictions;
  (*m)["cache.resident_bytes"] = resident;

  // Scatter-gather since open (gathers are memoised per pattern, so after
  // the warm-up pass they only move when an evicted list is rebuilt).
  double scattered = 0, skew = 0;
  for (const Served& s : served_) {
    if (s.opened.sharded == nullptr) continue;
    double max_gathered = 0, sum_gathered = 0;
    const auto counters = s.opened.sharded->Counters();
    for (const auto& c : counters) {
      scattered += static_cast<double>(c.patterns_scattered);
      max_gathered = std::max(max_gathered, static_cast<double>(c.triples_gathered));
      sum_gathered += static_cast<double>(c.triples_gathered);
    }
    if (sum_gathered > 0) {
      skew = max_gathered / (sum_gathered / static_cast<double>(counters.size()));
    }
  }
  (*m)["shard.patterns_scattered"] = scattered;
  (*m)["shard.gather_skew"] = skew;

  double bytes_mapped = 0;
  for (const Served& s : served_) bytes_mapped += static_cast<double>(s.opened.bytes_mapped());
  (*m)["store.bytes_mapped"] = bytes_mapped;

  PassOrder replay_order(keys_.size(), seed_);
  return Replay(replay_order.Next(), window_mean, tracer, m, error);
}

bool Bench::Replay(const std::vector<size_t>& pass, double window_size,
                   Tracer* tracer, std::map<std::string, double>* m,
                   std::string* error) {
  // Immediate requests run partitioned trees on the engine's pool; windowed
  // requests run as batch tasks, which always build serial trees.
  std::unique_ptr<ThreadPool> pool;
  if (!spec_.windowed) pool = std::make_unique<ThreadPool>(kEngineThreads - 1);
  std::vector<std::unique_ptr<PlanExecutor>> executors;
  for (size_t d = 0; d < served_.size(); ++d) {
    Engine& engine = *served_[d].engine;
    executors.push_back(std::make_unique<PlanExecutor>(
        &engine.store(), &engine.postings(), datasets_[d]->rules,
        PlanExecutor::Options{served_[d].options.parallel_min_rows}));
  }

  // 1. Every request of one pass through parse -> plan -> build -> pull.
  uint64_t partitioned = 0;
  for (size_t i = 0; i < pass.size(); ++i) {
    const Key& key = keys_[pass[i]];
    const Dataset& ds = *datasets_[key.ds];
    Engine& engine = EngineFor(key);
    const char* strategy = StrategyName(key.strategy).data();
    const uint32_t root = tracer->Open("request", 0, i, strategy);
    auto parsed = Traced(tracer, "parse", root, i, strategy, [&] {
      return ParseQuery(ds.texts[key.query], engine.store().dict());
    });
    if (!parsed.ok()) {
      *error = "replay parse: " + parsed.status().ToString();
      return false;
    }
    const Query& query = parsed.value();
    QueryResponse planned = Traced(tracer, "explain", root, i, strategy, [&] {
      return engine.Explain(QueryRequest::FromQuery(query, key.k, key.strategy));
    });
    ExecStats stats;
    ExecContext ctx(&stats, pool.get());
    auto tree = Traced(tracer, "build", root, i, strategy, [&] {
      return executors[key.ds]->Build(query, planned.plan, &ctx);
    });
    std::vector<ScoredRow> rows = Traced(tracer, "pulltopk", root, i, strategy,
                                         [&] { return PullTopK(tree.get(), key.k, &stats); });
    tree.reset();
    ctx.MergePartitionStats();
    tracer->Close(root);
    for (ScoredRow& row : rows) {
      if (row.bindings.size() > query.num_vars()) row.bindings.resize(query.num_vars());
    }
    std::string why;
    if (!RowsBitIdentical(key.rows, rows, &why)) {
      *error = "replay: " + why;
      return false;
    }
    partitioned += stats.parallel_partitions > 0 ? 1 : 0;
  }
  (*m)["build.partitioned_share"] =
      static_cast<double>(partitioned) / static_cast<double>(pass.size());

  // 2. The windowed workloads run Spec-QP only; replay each distinct query
  // once more as TriniT so exec.spec_over_trinit has a base everywhere.
  if (spec_.windowed) {
    for (size_t q = 0; q < datasets_[0]->queries.size(); ++q) {
      const Dataset& ds = *datasets_[0];
      const char* trinit = StrategyName(Strategy::kTrinit).data();
      const uint32_t root = tracer->Open("request_probe", 0, pass.size() + q, trinit);
      const QueryPlan plan = QueryPlan::TrinitPlan(ds.queries[q].num_patterns());
      ExecStats stats;
      ExecContext ctx(&stats, nullptr);
      auto tree = Traced(tracer, "build", root, pass.size() + q, trinit, [&] {
        return executors[0]->Build(ds.queries[q], plan, &ctx);
      });
      std::vector<ScoredRow> rows =
          Traced(tracer, "pulltopk", root, pass.size() + q, trinit,
                 [&] { return PullTopK(tree.get(), 10, &stats); });
      tree.reset();
      tracer->Close(root);
      std::string why;
      if (!ScoresMatchOracle(ds.truth[q], 10, rows, kOracleRelTol, &why)) {
        *error = "replay TriniT vs oracle: " + why;
        return false;
      }
    }
  }

  // 3. Admission windows of the observed size through the batch executor.
  BatchStats batch_total;
  uint64_t batches = 0;
  if (spec_.windowed) {
    const size_t w = std::max<size_t>(1, static_cast<size_t>(std::lround(window_size)));
    BatchExecutor executor(served_[0].engine);
    for (size_t begin = 0; begin < pass.size(); begin += w) {
      const size_t end = std::min(pass.size(), begin + w);
      std::vector<Query> queries;
      for (size_t i = begin; i < end; ++i) {
        queries.push_back(datasets_[0]->queries[keys_[pass[i]].query]);
      }
      BatchStats bs;
      const auto results = Traced(tracer, "batch", 0, begin, "-", [&] {
        return executor.Execute(queries, 10, Strategy::kSpecQp, &bs);
      });
      for (size_t i = begin; i < end; ++i) {
        std::string why;
        if (!RowsBitIdentical(keys_[pass[i]].rows, results[i - begin].rows, &why)) {
          *error = "replay batch: " + why;
          return false;
        }
      }
      batch_total.batch_size += bs.batch_size;
      batch_total.distinct_queries += bs.distinct_queries;
      batch_total.shared_scan_hits += bs.shared_scan_hits;
      batch_total.shared_scan_misses += bs.shared_scan_misses;
      batch_total.prepare_ms += bs.prepare_ms;
      batch_total.plan_ms += bs.plan_ms;
      batch_total.exec_ms += bs.exec_ms;
      ++batches;
    }
  }
  const double nb = batches == 0 ? 1.0 : static_cast<double>(batches);
  (*m)["batch.prepare_ms"] = batch_total.prepare_ms / nb;
  (*m)["batch.plan_ms"] = batch_total.plan_ms / nb;
  (*m)["batch.exec_ms"] = batch_total.exec_ms / nb;
  const double lookups = static_cast<double>(batch_total.shared_scan_hits +
                                             batch_total.shared_scan_misses);
  (*m)["batch.shared_scan_hit_ratio"] =
      lookups > 0 ? static_cast<double>(batch_total.shared_scan_hits) / lookups : 0.0;
  (*m)["batch.distinct_ratio"] =
      batch_total.batch_size > 0
          ? static_cast<double>(batch_total.distinct_queries) /
                static_cast<double>(batch_total.batch_size)
          : 0.0;

  // 4. Planning cold (fresh engine), statistics warm-up, and the estimate
  // error the calibration log saw. Windowed requests do not feed the log,
  // so each distinct query is submitted once immediately first.
  double log_error = 0;
  uint64_t log_records = 0;
  for (size_t d = 0; d < served_.size(); ++d) {
    const Dataset& ds = *datasets_[d];
    Engine& engine = *served_[d].engine;
    EngineOptions fresh_options;
    fresh_options.num_threads = 1;
    for (size_t q = 0; q < ds.queries.size(); ++q) {
      const QueryRequest request =
          QueryRequest::FromQuery(ds.queries[q], spec_.ks[0], Strategy::kSpecQp);
      {
        Engine cold(&engine.store(), ds.rules, fresh_options);
        Traced(tracer, "explain_cold", 0, q, "-", [&] { return cold.Explain(request); });
      }
      Engine warm(&engine.store(), ds.rules, fresh_options);
      Traced(tracer, "warm", 0, q, "-", [&] { warm.Warm(ds.queries[q]); });
      if (spec_.windowed) {
        const QueryResponse r =
            SubmitImmediate(engine, ds.queries[q], spec_.ks[0], Strategy::kSpecQp);
        if (!r.ok()) {
          *error = "replay immediate: " + r.status.ToString();
          return false;
        }
      }
    }
    for (const CalibrationPatternRecord& r : engine.calibration_log().PatternRecords()) {
      if (r.estimated_m > 0 && r.actual_m > 0) {
        log_error += std::abs(std::log(r.estimated_m / r.actual_m));
        ++log_records;
      }
    }
  }
  (*m)["plan.log_est_error"] =
      log_records == 0 ? 0.0 : log_error / static_cast<double>(log_records);

  // 5. Store open, repeated (windowed workloads serve from disk).
  for (size_t d = 0; d < served_.size(); ++d) {
    if (served_[d].path.empty()) continue;
    for (int rep = 0; rep < 3; ++rep) {
      auto reopened = Traced(tracer, "open", 0, rep, "-", [&] {
        return Engine::OpenFromPath(served_[d].path, datasets_[d]->rules,
                                    served_[d].options);
      });
      if (!reopened.ok()) {
        *error = "reopen: " + reopened.status().ToString();
        return false;
      }
    }
  }

  // 6. Block decode against flat scan over the workload's posting lists:
  // the serving store's blocked lists (mapped v3 / bundle), or for the
  // in-memory workload the same lists block-encoded, each with its decoded
  // memo dropped first; flat = the lists built from the in-memory store.
  uint64_t block_entries = 0;
  uint64_t flat_entries = 0;
  double sink = 0;
  for (size_t d = 0; d < served_.size(); ++d) {
    const Dataset& ds = *datasets_[d];
    for (const PatternKey& key : WorkloadPatternKeys(ds)) {
      const PostingList flat = BuildPostingList(*ds.store, key);
      if (flat.empty()) continue;
      std::shared_ptr<const PostingList> blocked;
      if (spec_.windowed) {
        blocked = served_[d].engine->postings().Get(key);
      } else {
        EncodedPostingBlocks encoded =
            EncodePostingBlocks(flat.entries.data(), flat.entries.size());
        blocked = std::make_shared<const PostingList>(PostingList::FromBlocks(
            std::move(encoded.headers), std::move(encoded.payload),
            flat.size(), flat.max_raw_score,
            static_cast<uint32_t>(ds.store->size())));
      }
      if (!blocked->blocked()) continue;
      for (int rep = 0; rep < 3; ++rep) {
        blocked->blocks->ReleaseDecodedBlocks();
        sink += Traced(tracer, "block_scan", 0, rep, "-",
                       [&] { return ScanAll(blocked.get(), &block_entries); });
        sink += Traced(tracer, "flat_scan", 0, rep, "-",
                       [&] { return ScanAll(&flat, &flat_entries); });
      }
    }
  }
  (*m)["_block_scan_entries"] = static_cast<double>(block_entries);
  (*m)["_flat_scan_entries"] = static_cast<double>(flat_entries);
  (*m)["_sink"] = sink > 0 ? 1.0 : 0.0;
  return true;
}

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

// Every EngineOptions value that differs from the default, as JSON members.
std::string NonDefaultOptions(const EngineOptions& o) {
  const EngineOptions d;
  std::string out;
  auto add = [&](const char* name, bool differs, const std::string& value) {
    if (!differs) return;
    if (!out.empty()) out += ", ";
    out += JsonString(name) + ": " + value;
  };
  auto num = [](double v) { return StrFormat("%.17g", v); };
#define E2E_OPT(field) add(#field, o.field != d.field, num(static_cast<double>(o.field)))
  add("selectivity_mode", o.selectivity_mode != d.selectivity_mode, "\"changed\"");
  add("estimator_model", o.estimator_model != d.estimator_model, "\"changed\"");
  E2E_OPT(head_fraction);
  E2E_OPT(grid_delta);
  E2E_OPT(num_threads);
  E2E_OPT(cache_budget_bytes);
  E2E_OPT(cache_cost_aware);
  E2E_OPT(parallel_min_rows);
  E2E_OPT(admission_max_batch);
  E2E_OPT(admission_max_delay_ms);
  E2E_OPT(speculate_threshold);
  E2E_OPT(replan_divergence_factor);
  E2E_OPT(replan_check_rows);
  add("calibration_path", o.calibration_path != d.calibration_path,
      JsonString(o.calibration_path));
  E2E_OPT(calibration_log_capacity);
  E2E_OPT(mmap);
  E2E_OPT(mmap_verify_all);
  E2E_OPT(degraded_reads);
  E2E_OPT(allow_quarantine);
  add("fault_plan", o.fault_plan != d.fault_plan, JsonString(o.fault_plan));
  E2E_OPT(admission_max_queue);
  E2E_OPT(admission_deadline_shed);
  E2E_OPT(admission_retry_after_ms);
#undef E2E_OPT
  return "{" + out + "}";
}

std::string Bench::EnvironmentJson(double late_ms_p99) const {
  const EngineOptions& o = served_.front().options;
  std::string out = "{";
  out += "\"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  out += ", \"compiler\": " + JsonString(E2E_COMPILER);
  out += ", \"build_type\": " + JsonString(E2E_BUILD_TYPE);
  out += ", \"workload\": " + JsonString(spec_.name);
  out += ", \"num_threads\": " + std::to_string(o.num_threads);
  out += ", \"cache_budget_bytes\": " + std::to_string(o.cache_budget_bytes);
  out += ", \"admission_max_batch\": " + std::to_string(o.admission_max_batch);
  out += StrFormat(", \"admission_max_delay_ms\": %.17g", o.admission_max_delay_ms);
  if (spec_.open_loop) {
    out += StrFormat(", \"offered_qps\": %.17g", kOpenLoopRate);
    out += StrFormat(", \"gen_late_ms_p99\": %.17g", late_ms_p99);
    out += late_ms_p99 > kMaxLateMsP99 ? ", \"valid\": false" : ", \"valid\": true";
  }
  out += ", \"non_default_options\": " + NonDefaultOptions(o);
  return out + "}";
}

// --- self-test ----------------------------------------------------------------

// Checks the answer checker on a small slice of the real XKG workload: the
// live answers pass, and an injected wrong row or perturbed score fails.
int SelfTest() {
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    std::fprintf(stderr, "[self-test] %s: %s\n", ok ? "ok  " : "FAIL", what);
    failures += ok ? 0 : 1;
  };
  std::vector<std::unique_ptr<Dataset>> datasets;
  datasets.push_back(MakeXkg(/*queries_per_size=*/2));
  std::vector<Key> keys;
  for (size_t q = 0; q < datasets[0]->queries.size(); ++q) {
    for (Strategy s : {Strategy::kSpecQp, Strategy::kTrinit}) {
      Key key;
      key.query = q;
      key.strategy = s;
      keys.push_back(std::move(key));
    }
  }
  std::string error;
  expect(ComputeReferences(datasets, &keys, &error), "references match oracle");

  EngineOptions options;
  options.num_threads = kEngineThreads;
  Engine engine(datasets[0]->store, datasets[0]->rules, options);
  Tally tally;
  std::vector<QueryResponse> live;
  for (const Key& key : keys) {
    live.push_back(SubmitImmediate(engine, datasets[0]->queries[key.query],
                                   key.k, key.strategy));
    tally.Record(key, live.back(), 0.0);
  }
  expect(tally.failed == 0 && tally.attempted == keys.size(),
         "live answers are bit-identical to the reference");

  const Key& key = keys[1];  // TriniT, the oracle-checked strategy
  const auto& truth = datasets[0]->truth[key.query];
  expect(ScoresMatchOracle(truth, key.k, live[1].rows, kOracleRelTol),
         "TriniT matches the oracle");
  expect(!live[1].rows.empty(), "the probed query has answers");
  if (live[1].rows.empty()) return 1;

  QueryResponse wrong_row = live[1];
  wrong_row.rows.back().bindings[0] += 1;
  expect(!RowsBitIdentical(key.rows, wrong_row.rows), "a wrong binding fails");
  QueryResponse missing_row = live[1];
  missing_row.rows.pop_back();
  expect(!RowsBitIdentical(key.rows, missing_row.rows), "a missing row fails");
  expect(!ScoresMatchOracle(truth, key.k, missing_row.rows, kOracleRelTol),
         "a missing row fails the oracle check");
  QueryResponse ulp = live[1];
  ulp.rows.front().score = std::nextafter(ulp.rows.front().score, 1e300);
  expect(!RowsBitIdentical(key.rows, ulp.rows), "a one-ulp score change fails");
  expect(ScoresMatchOracle(truth, key.k, ulp.rows, kOracleRelTol),
         "a one-ulp score change is within the oracle tolerance");
  QueryResponse perturbed = live[1];
  perturbed.rows.front().score *= 1.0 + 1e-6;
  expect(!ScoresMatchOracle(truth, key.k, perturbed.rows, kOracleRelTol),
         "a 1e-6 relative score change fails the oracle check");

  Tally counted;
  counted.Record(key, wrong_row, 0.0);
  counted.Record(key, live[1], 0.0);
  expect(counted.failed == 1 && counted.attempted == 2,
         "a wrong answer counts as failed");
  QueryResponse refused;
  refused.status = Status::ResourceExhausted("shed");
  counted.Record(key, refused, 0.0);
  expect(counted.failed == 2, "a refused request counts as failed");
  std::printf("self-test %s\n", failures == 0 ? "passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}

// --- main ---------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string workdir;
  std::string spans;
  bool self_test = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--self-test") {
      args->self_test = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      args->workload = value;
    } else if (arg == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') return false;
    } else if (arg == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(args->seconds > 0)) return false;
    } else if (arg == "--trace") {
      if (std::string_view(value) != "0" && std::string_view(value) != "1") {
        return false;
      }
      args->trace = value[0] - '0';
    } else if (arg == "--workdir") {
      args->workdir = value;
    } else if (arg == "--spans") {
      args->spans = value;
    } else {
      return false;
    }
  }
  return args->self_test ||
         (!args->workload.empty() && args->seconds > 0 && args->trace >= 0 &&
          !args->workdir.empty() && (args->trace == 0 || !args->spans.empty()));
}

void PrintResult(bool correct, double attempted, double failed,
                 const std::map<std::string, double>& metrics) {
  std::string out = StrFormat(
      "{\"correct\": %s, \"attempted\": %.0f, \"failed\": %.0f, \"metrics\": {",
      correct ? "true" : "false", attempted, failed);
  bool first = true;
  for (const auto& [name, value] : metrics) {
    out += StrFormat("%s%s: %.17g", first ? "" : ", ", JsonString(name).c_str(),
                     std::isfinite(value) ? value : 0.0);
    first = false;
  }
  std::printf("%s}}\n", out.c_str());
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  const auto process_start = Clock::now();
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2e_submit --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> --workdir <dir> [--spans <path>] | --self-test\n");
    return 2;
  }
  if (args.self_test) return SelfTest();
  WorkloadSpec spec;
  if (!FindWorkload(args.workload, &spec)) {
    std::fprintf(stderr, "e2e_submit: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  Bench bench(spec, args.seed, args.workdir);
  std::string error;
  if (!bench.Setup(&error)) {
    std::fprintf(stderr, "e2e_submit: setup failed: %s\n", error.c_str());
    PrintResult(false, 1, 1, {});
    return 1;
  }
  const double setup_s = Secs(bench.setup_done() - process_start);
  std::fprintf(stderr, "[e2e] %s: set up in %.2f s\n", spec.name.c_str(), setup_s);
  std::map<std::string, double> metrics;
  bool ok = false;
  if (args.trace == 0) {
    ok = bench.RunTimed(args.seconds, &metrics, &error);
    metrics["setup_s"] = setup_s;
  } else {
    Tracer tracer;
    ok = bench.RunTraced(args.seconds, &tracer, &metrics, &error);
    if (!tracer.Write(args.spans, process_start)) {
      std::fprintf(stderr, "e2e_submit: cannot write %s\n", args.spans.c_str());
      return 1;
    }
  }
  const double late = metrics.count("gen_late_ms_p99")   ? metrics["gen_late_ms_p99"]
                      : metrics.count("gen.late_ms_p99") ? metrics["gen.late_ms_p99"]
                                                         : 0.0;
  metrics.erase("gen_late_ms_p99");
  std::printf("{\"environment\": %s}\n", bench.EnvironmentJson(late).c_str());
  if (!ok) std::fprintf(stderr, "e2e_submit: %s\n", error.c_str());
  const double attempted = metrics.count("attempted") ? metrics["attempted"] : 1;
  const double failed = metrics.count("failed") ? metrics["failed"] : (ok ? 0 : 1);
  metrics.erase("attempted");
  metrics.erase("failed");
  PrintResult(ok, attempted, failed, metrics);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace specqp::e2e

int main(int argc, char** argv) {
  try {
    return specqp::e2e::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_submit: %s\n", e.what());
    return 1;
  }
}
