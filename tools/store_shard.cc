// store_shard: offline builder of sharded store bundles (SQPBNDL1).
//
// Two modes:
//
//   --input <store file>   shard an existing SQPSTOR3 store file
//   --dataset xkg|twitter  generate a synthetic dataset directly into
//                          shards, streamed: each shard task re-runs the
//                          deterministic generator pass and keeps only the
//                          triples hashing to its shard, so the full graph
//                          never exists in memory — peak memory is the
//                          dictionary plus one shard's triples per worker.
//                          This is what makes --scale 100 buildable on a
//                          laptop.
//
// Shard files are SQPSTOR3 stores, built in parallel on a ThreadPool
// (--threads) and streamed to disk; the manifest is written last, sealing
// the bundle. The result opens through the stock Engine::OpenFromPath.
//
//   store_shard --dataset xkg --scale 100 --shards 8 --out /data/xkg100
//   store_shard --input twitter.sqps --shards 4 --scheme predicate
//               --out /data/twitter4

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <system_error>
#include <vector>

#include "datasets/twitter_generator.h"
#include "datasets/xkg_generator.h"
#include "rdf/sharded_store.h"
#include "rdf/store_io.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace specqp {
namespace {

struct ToolOptions {
  std::string input;
  std::string dataset;
  std::string out;
  uint32_t shards = 4;
  size_t scale = 1;
  uint64_t seed = 0;  // 0 = the dataset's default seed
  bundle::HashScheme scheme = bundle::HashScheme::kSubject;
  size_t threads = 0;  // 0 = hardware concurrency
};

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s (--input FILE | --dataset xkg|twitter) --out DIR\n"
      "          [--shards N] [--scale N] [--seed N]\n"
      "          [--scheme subject|predicate] [--threads N]\n",
      argv0);
  return 2;
}

bool ParseUint(const char* text, uint64_t* out) {
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  *out = parsed;
  return true;
}

// One streamed generator pass per shard: full dictionary, only the
// triples hashing to `shard`.
Status BuildGeneratedShard(const ToolOptions& options, uint32_t shard) {
  TripleStore store;
  uint64_t kept = 0;
  uint64_t seen = 0;
  auto sink = [&](TermId s, TermId p, TermId o, double score) {
    ++seen;
    const Triple t{s, p, o, score};
    if (BundleShardOfTriple(t, options.scheme, options.shards) != shard) {
      return;
    }
    ++kept;
    store.AddEncoded(s, p, o, score);
  };
  if (options.dataset == "xkg") {
    XkgConfig config;
    config.scale = options.scale;
    if (options.seed != 0) config.seed = options.seed;
    StreamXkgTriples(config, &store.dict(), sink);
  } else {
    TwitterConfig config;
    config.scale = options.scale;
    if (options.seed != 0) config.seed = options.seed;
    StreamTwitterTriples(config, &store.dict(), sink);
  }
  store.Finalize();

  const std::string path =
      options.out + "/" + BundleShardFileName(shard);
  SPECQP_RETURN_IF_ERROR(SaveStore(store, path));
  std::fprintf(stderr, "  shard %u: kept %llu of %llu emitted -> %s\n",
               shard, static_cast<unsigned long long>(kept),
               static_cast<unsigned long long>(seen), path.c_str());
  return Status::Ok();
}

int Run(const ToolOptions& options) {
  const size_t workers =
      options.threads > 0 ? options.threads : ThreadPool::HardwareConcurrency();
  WallTimer timer;
  Status status;

  if (!options.input.empty()) {
    auto loaded = LoadStore(options.input);
    if (!loaded.ok()) {
      std::fprintf(stderr, "store_shard: cannot load %s: %s\n",
                   options.input.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    ThreadPool pool(workers > 0 ? workers - 1 : 0);
    ShardBundleOptions bundle_options;
    bundle_options.shard_count = options.shards;
    bundle_options.scheme = options.scheme;
    bundle_options.pool = &pool;
    status = WriteShardBundle(loaded.value(), options.out, bundle_options);
  } else {
    std::error_code ec;
    std::filesystem::create_directories(options.out, ec);
    if (ec) {
      std::fprintf(stderr, "store_shard: cannot create %s\n",
                   options.out.c_str());
      return 1;
    }
    // One generator pass per shard, parallel across shards. Each pass is
    // deterministic in the seed, so every pass emits the identical stream
    // and the per-shard filters partition it exactly.
    ThreadPool pool(workers > 0 ? workers - 1 : 0);
    std::vector<Status> statuses(options.shards);
    std::vector<std::function<void()>> tasks;
    tasks.reserve(options.shards);
    for (uint32_t shard = 0; shard < options.shards; ++shard) {
      tasks.push_back([&options, &statuses, shard] {
        statuses[shard] = BuildGeneratedShard(options, shard);
      });
    }
    pool.RunAndWait(&tasks);
    for (const Status& s : statuses) {
      if (!s.ok() && status.ok()) status = s;
    }
    if (status.ok()) {
      status = WriteBundleManifest(options.out, options.shards,
                                   options.scheme);
    }
  }

  if (!status.ok()) {
    std::fprintf(stderr, "store_shard: %s\n", status.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "store_shard: wrote %u-shard bundle to %s in %.1f ms\n",
               options.shards, options.out.c_str(), timer.ElapsedMillis());
  return 0;
}

}  // namespace
}  // namespace specqp

int main(int argc, char** argv) {
  specqp::ToolOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    uint64_t value = 0;
    if (arg == "--input") {
      const char* v = next();
      if (v == nullptr) return specqp::Usage(argv[0]);
      options.input = v;
    } else if (arg == "--dataset") {
      const char* v = next();
      if (v == nullptr ||
          (std::strcmp(v, "xkg") != 0 && std::strcmp(v, "twitter") != 0)) {
        return specqp::Usage(argv[0]);
      }
      options.dataset = v;
    } else if (arg == "--out") {
      const char* v = next();
      if (v == nullptr) return specqp::Usage(argv[0]);
      options.out = v;
    } else if (arg == "--shards") {
      const char* v = next();
      if (v == nullptr || !specqp::ParseUint(v, &value) || value == 0 ||
          value > specqp::bundle::kMaxShards) {
        return specqp::Usage(argv[0]);
      }
      options.shards = static_cast<uint32_t>(value);
    } else if (arg == "--scale") {
      const char* v = next();
      if (v == nullptr || !specqp::ParseUint(v, &value) || value == 0) {
        return specqp::Usage(argv[0]);
      }
      options.scale = static_cast<size_t>(value);
    } else if (arg == "--seed") {
      const char* v = next();
      if (v == nullptr || !specqp::ParseUint(v, &value)) {
        return specqp::Usage(argv[0]);
      }
      options.seed = value;
    } else if (arg == "--scheme") {
      const char* v = next();
      if (v != nullptr && std::strcmp(v, "subject") == 0) {
        options.scheme = specqp::bundle::HashScheme::kSubject;
      } else if (v != nullptr && std::strcmp(v, "predicate") == 0) {
        options.scheme = specqp::bundle::HashScheme::kPredicate;
      } else {
        return specqp::Usage(argv[0]);
      }
    } else if (arg == "--threads") {
      const char* v = next();
      if (v == nullptr || !specqp::ParseUint(v, &value)) {
        return specqp::Usage(argv[0]);
      }
      options.threads = static_cast<size_t>(value);
    } else {
      return specqp::Usage(argv[0]);
    }
  }
  if (options.out.empty() ||
      (options.input.empty() == options.dataset.empty())) {
    return specqp::Usage(argv[0]);
  }
  return specqp::Run(options);
}
