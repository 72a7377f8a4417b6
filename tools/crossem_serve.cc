// crossem_serve — build, query, and serve online matching indexes.
//
// Four modes:
//
//   crossem_serve build-index --table NAME=FILE.csv [--json FILE]
//       --images patches.csv --model model.ckpt --index repo.cidx
//       [--backend flat|hnsw] [--quant f32|f16|int8] [--rerank-k N]
//       [--hnsw-m N] [--ef-construction N]
//       [--prompt hard|soft|baseline] [--seed N]
//     Encodes every image with the frozen model and writes the
//     embedding index (CEMCKPT2, CRC-checked, atomic). --quant stores
//     rows block-quantized (DESIGN.md §16): scans score on compressed
//     rows, then the top --rerank-k candidates are re-ranked against an
//     exact f32 side file ("<index>.f32rank") before the final top-k.
//
//   crossem_serve query --table NAME=FILE.csv [--json FILE]
//       --index repo.cidx --model model.ckpt --entity LABEL [...]
//       [--k N] [--min-probability P] [--patch-dim D] [--max-patches P]
//     Answers one MatchService request per --entity and prints
//     entity,image_id,similarity,probability CSV to stdout.
//
//   crossem_serve stdin-batch --table NAME=FILE.csv [--json FILE]
//       --index repo.cidx --model model.ckpt
//       [--k N] [--clients N] [--deadline-us N] [--max-batch N]
//       [--max-wait-us N] [--queue N] [--patch-dim D] [--max-patches P]
//     Reads entity labels from stdin (one per line) and serves them
//     through N concurrent client threads — the micro-batching,
//     admission-control path production traffic takes. Per-request
//     results go to stdout; rejections and the final stats line to
//     stderr. Malformed query lines (empty or control characters) are
//     reported as machine-readable JSON error lines on stderr and make
//     the exit status nonzero.
//
//   crossem_serve http --table NAME=FILE.csv [--json FILE]
//       --index repo.cidx --model model.ckpt
//       [--host H] [--port P] [--http-threads N] [--shards N]
//       [--max-inflight N] [--tenant-rate R] [--tenant-burst B]
//       [--k N] [--patch-dim D] [--max-patches P]
//     Serves /v1/match, /healthz, /metrics, /metrics/history,
//     /debug/tracez, and /admin/snapshot over HTTP/1.1 (DESIGN.md
//     §14-15): per-tenant token-bucket quotas keyed by the x-tenant
//     header, a global concurrency limiter, deadlines from
//     x-deadline-ms, request tracing (traceparent / x-request-id
//     adopted and echoed), a time-series flight recorder
//     (--history-interval-ms, 0 disables), and zero-downtime index
//     hot-swaps via POST /admin/snapshot {"index": PATH}. Runs until
//     SIGINT/SIGTERM.
//
// The model checkpoint must have been written against the same graph
// inputs (the vocabulary is rebuilt from the mapped graph). query and
// stdin-batch do not need --images: pass the --patch-dim / --max-patches
// the model was built with (build-index prints them).
//
// Observability: --stats-out FILE (query and stdin-batch modes) writes
// the process-wide metrics registry — including the crossem_serve_*
// request/batch/cache/latency instruments — in Prometheus text
// exposition format after the run; --trace-out FILE enables span
// tracing and writes a Chrome trace_event JSON (Perfetto).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/crossem.h"
#include "net/match_app.h"
#include "net/server.h"
#include "data/dataset.h"
#include "graph/data_mapping.h"
#include "nn/serialize.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "serve/index.h"
#include "serve/service.h"
#include "serve/sharded.h"
#include "serve/snapshot.h"
#include "text/tokenizer.h"

namespace {

using namespace crossem;

struct Args {
  std::string mode;
  std::vector<std::pair<std::string, std::string>> tables;  // name, path
  std::vector<std::string> jsons;
  std::string images_path;
  std::string index_path;
  std::string model;
  std::string backend = "flat";
  std::string prompt = "hard";
  std::vector<std::string> entities;
  int64_t k = 5;
  float min_probability = 0.0f;
  int64_t hnsw_m = 16;
  int64_t ef_construction = 128;
  int64_t ef_search = 64;
  int64_t clients = 4;
  int64_t deadline_us = 0;
  int64_t max_batch = 16;
  int64_t max_wait_us = 2000;
  int64_t queue = 256;
  int64_t cache = 4096;
  int64_t cache_bytes = 0;     // optional embedding-cache byte cap
  std::string quant = "f32";   // row storage format (build-index + cache)
  int64_t rerank_k = 0;        // quantized re-rank depth; 0 = default
  int64_t shards = 1;  // > 1 serves through a scatter-gather back end
  int64_t patch_dim = 0;    // model config when --images is absent
  int64_t max_patches = 0;  // ditto (repository max, pre-padding)
  uint64_t seed = 7;
  // http mode
  std::string host = "127.0.0.1";
  int64_t port = 8080;
  int64_t http_threads = 4;
  int64_t max_inflight = 128;
  double tenant_rate = 200.0;
  double tenant_burst = 100.0;
  // Flight-recorder sampling period for /metrics/history (0 disables).
  int64_t history_interval_ms = 250;
  std::string stats_out;  // Prometheus text exposition of the registry
  std::string trace_out;  // Chrome trace_event JSON (Perfetto)
};

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: crossem_serve MODE [flags]\n"
      "modes:\n"
      "  build-index  --table NAME=FILE.csv [--json FILE] --images FILE.csv\n"
      "               --model FILE --index FILE [--backend flat|hnsw]\n"
      "               [--quant f32|f16|int8] [--rerank-k N]\n"
      "               [--hnsw-m N] [--ef-construction N]\n"
      "               [--prompt hard|soft|baseline] [--seed N]\n"
      "  query        --table NAME=FILE.csv [--json FILE] --index FILE\n"
      "               --model FILE --entity LABEL [--entity LABEL ...]\n"
      "               [--k N] [--min-probability P] [--ef-search N]\n"
      "               [--patch-dim D] [--max-patches P]\n"
      "  stdin-batch  --table NAME=FILE.csv [--json FILE] --index FILE\n"
      "               --model FILE [--k N] [--clients N] [--deadline-us N]\n"
      "               [--max-batch N] [--max-wait-us N] [--queue N]\n"
      "               [--cache N] [--patch-dim D] [--max-patches P]\n"
      "  http         --table NAME=FILE.csv [--json FILE] --index FILE\n"
      "               --model FILE [--host ADDR] [--port N]\n"
      "               [--http-threads N] [--max-inflight N]\n"
      "               [--tenant-rate R] [--tenant-burst B] [--k N]\n"
      "               [--patch-dim D] [--max-patches P]\n"
      "               [--history-interval-ms N]\n"
      "               [--quant f32|f16|int8] [--cache-bytes N]\n"
      "               serves POST /v1/match, /healthz, /metrics (+json),\n"
      "               /metrics/history, /debug/tracez, and\n"
      "               /admin/snapshot until SIGINT/SIGTERM\n"
      "query/stdin-batch also take [--shards N] (partition the index and\n"
      "serve through the resilient scatter-gather engine: retries, hedged\n"
      "requests, circuit breakers, partial results with coverage),\n"
      "[--stats-out FILE] (Prometheus text) and [--trace-out FILE]\n"
      "(Chrome trace_event JSON)\n"
      "all serving modes take [--quant f32|f16|int8] (embedding-cache\n"
      "storage format) and [--cache-bytes N] (cache byte cap)\n");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  args->mode = argv[1];
  if (args->mode != "build-index" && args->mode != "query" &&
      args->mode != "stdin-batch" && args->mode != "http") {
    std::fprintf(stderr, "unknown mode: %s\n", args->mode.c_str());
    return false;
  }
  for (int i = 2; i < argc; ++i) {
    std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    auto next_i64 = [&](int64_t* out) {
      const char* v = next();
      if (v == nullptr) return false;
      *out = std::atoll(v);
      return true;
    };
    if (flag == "--table") {
      const char* v = next();
      if (v == nullptr) return false;
      std::string spec = v;
      size_t eq = spec.find('=');
      if (eq == std::string::npos) return false;
      args->tables.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
    } else if (flag == "--json") {
      const char* v = next();
      if (v == nullptr) return false;
      args->jsons.push_back(v);
    } else if (flag == "--images") {
      const char* v = next();
      if (v == nullptr) return false;
      args->images_path = v;
    } else if (flag == "--index") {
      const char* v = next();
      if (v == nullptr) return false;
      args->index_path = v;
    } else if (flag == "--model") {
      const char* v = next();
      if (v == nullptr) return false;
      args->model = v;
    } else if (flag == "--backend") {
      const char* v = next();
      if (v == nullptr) return false;
      args->backend = v;
    } else if (flag == "--prompt") {
      const char* v = next();
      if (v == nullptr) return false;
      args->prompt = v;
    } else if (flag == "--entity") {
      const char* v = next();
      if (v == nullptr) return false;
      args->entities.push_back(v);
    } else if (flag == "--min-probability") {
      const char* v = next();
      if (v == nullptr) return false;
      args->min_probability = static_cast<float>(std::atof(v));
    } else if (flag == "--seed") {
      const char* v = next();
      if (v == nullptr) return false;
      args->seed = static_cast<uint64_t>(std::atoll(v));
    } else if (flag == "--k") {
      if (!next_i64(&args->k)) return false;
    } else if (flag == "--hnsw-m") {
      if (!next_i64(&args->hnsw_m)) return false;
    } else if (flag == "--ef-construction") {
      if (!next_i64(&args->ef_construction)) return false;
    } else if (flag == "--ef-search") {
      if (!next_i64(&args->ef_search)) return false;
    } else if (flag == "--clients") {
      if (!next_i64(&args->clients)) return false;
    } else if (flag == "--deadline-us") {
      if (!next_i64(&args->deadline_us)) return false;
    } else if (flag == "--max-batch") {
      if (!next_i64(&args->max_batch)) return false;
    } else if (flag == "--max-wait-us") {
      if (!next_i64(&args->max_wait_us)) return false;
    } else if (flag == "--queue") {
      if (!next_i64(&args->queue)) return false;
    } else if (flag == "--cache") {
      if (!next_i64(&args->cache)) return false;
    } else if (flag == "--cache-bytes") {
      if (!next_i64(&args->cache_bytes)) return false;
    } else if (flag == "--quant") {
      const char* v = next();
      if (v == nullptr) return false;
      args->quant = v;
    } else if (flag == "--rerank-k") {
      if (!next_i64(&args->rerank_k)) return false;
    } else if (flag == "--shards") {
      if (!next_i64(&args->shards)) return false;
      if (args->shards < 1) {
        std::fprintf(stderr, "--shards must be >= 1\n");
        return false;
      }
    } else if (flag == "--patch-dim") {
      if (!next_i64(&args->patch_dim)) return false;
    } else if (flag == "--max-patches") {
      if (!next_i64(&args->max_patches)) return false;
    } else if (flag == "--host") {
      const char* v = next();
      if (v == nullptr) return false;
      args->host = v;
    } else if (flag == "--port") {
      if (!next_i64(&args->port)) return false;
    } else if (flag == "--http-threads") {
      if (!next_i64(&args->http_threads)) return false;
    } else if (flag == "--max-inflight") {
      if (!next_i64(&args->max_inflight)) return false;
    } else if (flag == "--tenant-rate") {
      const char* v = next();
      if (v == nullptr) return false;
      args->tenant_rate = std::atof(v);
    } else if (flag == "--tenant-burst") {
      const char* v = next();
      if (v == nullptr) return false;
      args->tenant_burst = std::atof(v);
    } else if (flag == "--history-interval-ms") {
      if (!next_i64(&args->history_interval_ms)) return false;
    } else if (flag == "--stats-out") {
      const char* v = next();
      if (v == nullptr) return false;
      args->stats_out = v;
    } else if (flag == "--trace-out") {
      const char* v = next();
      if (v == nullptr) return false;
      args->trace_out = v;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  if (args->tables.empty() && args->jsons.empty()) return false;
  if (args->index_path.empty() || args->model.empty()) return false;
  if (args->mode == "build-index" && args->images_path.empty()) return false;
  if (args->mode == "query" && args->entities.empty()) return false;
  return true;
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot read '" + path + "'");
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Writes the requested observability outputs after a serving run:
/// --stats-out gets the process-wide registry (crossem_serve_* and
/// everything else) as Prometheus text; --trace-out gets the recorded
/// spans as Chrome trace_event JSON. Returns false if a requested file
/// could not be written.
bool WriteObservability(const Args& args) {
  bool ok = true;
  if (!args.stats_out.empty()) {
    std::ofstream out(args.stats_out, std::ios::trunc);
    out << obs::ExportPrometheus(obs::MetricsRegistry::Default().Snapshot());
    out.flush();
    if (!out) {
      std::fprintf(stderr, "cannot write stats '%s'\n",
                   args.stats_out.c_str());
      ok = false;
    }
  }
  if (!args.trace_out.empty() && !obs::WriteChromeTrace(args.trace_out)) {
    std::fprintf(stderr, "cannot write trace '%s'\n", args.trace_out.c_str());
    ok = false;
  }
  return ok;
}

/// Everything a mode needs: the mapped graph, the model restored from
/// --model, a tokenizer over the graph vocabulary, and the matcher.
struct Setup {
  graph::GraphBuilder builder;
  std::unique_ptr<text::Vocabulary> vocab;
  std::unique_ptr<clip::ClipModel> model;
  std::unique_ptr<text::Tokenizer> tokenizer;
  std::unique_ptr<core::CrossEm> matcher;
  data::ImageRepository images;  // only when --images was given
  bool have_images = false;
};

int BuildSetup(const Args& args, Setup* s) {
  for (const auto& [name, path] : args.tables) {
    auto text = ReadFile(path);
    if (!text.ok()) {
      std::fprintf(stderr, "%s\n", text.status().ToString().c_str());
      return 1;
    }
    auto table = graph::ParseCsv(name, text.value());
    if (!table.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(),
                   table.status().ToString().c_str());
      return 1;
    }
    if (auto st = s->builder.AddTable(table.value()); !st.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(), st.ToString().c_str());
      return 1;
    }
  }
  for (const std::string& path : args.jsons) {
    auto text = ReadFile(path);
    if (!text.ok()) {
      std::fprintf(stderr, "%s\n", text.status().ToString().c_str());
      return 1;
    }
    auto doc = graph::ParseJson(text.value());
    if (!doc.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(),
                   doc.status().ToString().c_str());
      return 1;
    }
    if (auto st = s->builder.AddJson(doc.value()); !st.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(), st.ToString().c_str());
      return 1;
    }
  }

  int64_t patch_dim = args.patch_dim;
  int64_t max_patches = args.max_patches;
  if (!args.images_path.empty()) {
    auto repo = data::LoadImageRepositoryCsv(args.images_path);
    if (!repo.ok()) {
      std::fprintf(stderr, "%s\n", repo.status().ToString().c_str());
      return 1;
    }
    s->images = repo.value();
    s->have_images = true;
    patch_dim = s->images.patches.size(2);
    max_patches = s->images.patches.size(1);
  }
  if (patch_dim <= 0 || max_patches <= 0) {
    std::fprintf(stderr,
                 "need --images, or the model's --patch-dim and "
                 "--max-patches (build-index prints them)\n");
    return 2;
  }

  // The vocabulary must be rebuilt exactly as at model-training time
  // (crossem_match's recipe) or the checkpoint will not load.
  s->vocab = std::make_unique<text::Vocabulary>();
  for (const std::string& w : s->builder.graph().UniqueWords()) {
    s->vocab->AddWord(w);
  }
  for (const char* w : {"a", "photo", "of", "with", "and", "in"}) {
    s->vocab->AddWord(w);
  }
  clip::ClipConfig cc;
  cc.vocab_size = s->vocab->size();
  cc.text_context = 64;
  cc.patch_dim = patch_dim;
  cc.max_patches = max_patches + 1;
  Rng rng(args.seed);
  s->model = std::make_unique<clip::ClipModel>(cc, &rng);
  s->tokenizer = std::make_unique<text::Tokenizer>(s->vocab.get(), cc.text_context);
  if (auto st = nn::LoadCheckpoint(s->model.get(), args.model); !st.ok()) {
    std::fprintf(stderr, "model: %s\n", st.ToString().c_str());
    return 1;
  }

  core::CrossEmOptions options;
  if (args.prompt == "hard") {
    options.prompt_mode = core::PromptMode::kHard;
  } else if (args.prompt == "soft") {
    options.prompt_mode = core::PromptMode::kSoft;
  } else if (args.prompt == "baseline") {
    options.prompt_mode = core::PromptMode::kBaseline;
  } else {
    std::fprintf(stderr, "unknown --prompt '%s'\n", args.prompt.c_str());
    return 2;
  }
  options.seed = args.seed;
  s->matcher = std::make_unique<core::CrossEm>(
      s->model.get(), &s->builder.graph(), s->tokenizer.get(), options);
  return 0;
}

int RunBuildIndex(const Args& args, Setup* s) {
  serve::quant::QuantFormat format;
  if (!serve::quant::ParseFormat(args.quant, &format)) {
    std::fprintf(stderr, "unknown --quant '%s' (want f32|f16|int8)\n",
                 args.quant.c_str());
    return 2;
  }
  std::unique_ptr<serve::EmbeddingIndex> index;
  if (args.backend == "flat") {
    index = std::make_unique<serve::FlatIndex>(format);
  } else if (args.backend == "hnsw") {
    serve::HnswOptions ho;
    ho.M = args.hnsw_m;
    ho.ef_construction = args.ef_construction;
    ho.ef_search = args.ef_search;
    index = std::make_unique<serve::HnswIndex>(ho, format);
  } else {
    std::fprintf(stderr, "unknown --backend '%s'\n", args.backend.c_str());
    return 2;
  }
  if (args.rerank_k > 0) index->set_rerank_k(args.rerank_k);

  Tensor embeddings = s->matcher->EncodeImages(s->images.patches);
  if (auto st = index->Add(embeddings, s->images.ids); !st.ok()) {
    std::fprintf(stderr, "add: %s\n", st.ToString().c_str());
    return 1;
  }
  index->set_model_fingerprint(s->matcher->EncoderFingerprint());
  if (auto st = index->Save(args.index_path); !st.ok()) {
    std::fprintf(stderr, "save: %s\n", st.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "wrote %s index (%s): %lld vectors of dim %lld -> %s\n"
               "query with: --patch-dim %lld --max-patches %lld\n",
               index->backend().c_str(), serve::quant::FormatName(format),
               static_cast<long long>(index->size()),
               static_cast<long long>(index->dim()), args.index_path.c_str(),
               static_cast<long long>(s->images.patches.size(2)),
               static_cast<long long>(s->images.patches.size(1)));
  return 0;
}

void PrintMatches(std::FILE* out, const std::string& entity,
                  const serve::MatchResponse& response) {
  for (const serve::RankedMatch& m : response.matches) {
    std::fprintf(out, "%s,%s,%.6f,%.6f\n", entity.c_str(),
                 m.image_id.c_str(), m.similarity, m.probability);
  }
}

/// The serving engine behind every online mode, now the same
/// SnapshotManager the HTTP front end hot-swaps through: the index is
/// loaded (with the fingerprint handshake), optionally hash-partitioned
/// across --shards, and served via a leased ServingSnapshot.
struct Engine {
  std::unique_ptr<serve::SnapshotManager> manager;

  Result<serve::MatchResponse> Match(const serve::MatchRequest& request) {
    serve::SnapshotLease lease = manager->Acquire();
    if (!lease) return Status::Unavailable("no index snapshot is live");
    return lease->Match(request);
  }
  void Shutdown() { manager->Shutdown(); }
  /// The final stderr stats line(s); call before Shutdown().
  void PrintStats() {
    serve::SnapshotLease lease = manager->Acquire();
    if (!lease) return;
    std::fprintf(stderr, "%s\n", lease->Stats().ToString().c_str());
    if (lease->sharded()) {
      std::fprintf(stderr, "%s\n", lease->Resilience().ToString().c_str());
    }
  }
};

int BuildEngine(const Args& args, Setup* s, Engine* engine) {
  serve::quant::QuantFormat cache_format;
  if (!serve::quant::ParseFormat(args.quant, &cache_format)) {
    std::fprintf(stderr, "unknown --quant '%s' (want f32|f16|int8)\n",
                 args.quant.c_str());
    return 2;
  }
  serve::EngineOptions eo;
  eo.base.max_batch = args.max_batch;
  eo.base.max_wait_micros = args.max_wait_us;
  eo.base.max_queue = args.queue;
  eo.base.cache_capacity = args.cache;
  eo.base.cache_max_bytes = args.cache_bytes;
  eo.base.cache_format = cache_format;
  eo.shards = args.shards;
  engine->manager =
      std::make_unique<serve::SnapshotManager>(s->matcher.get(), eo);
  if (auto st = engine->manager->LoadAndSwap(args.index_path); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  serve::SnapshotLease lease = engine->manager->Acquire();
  if (lease && lease->sharded()) {
    std::fprintf(stderr, "serving %lld rows across %lld shards\n",
                 static_cast<long long>(lease->rows()),
                 static_cast<long long>(lease->shards()));
  }
  return 0;
}

/// Operators see partial answers: per-request degraded coverage goes to
/// stderr (stdout stays a clean CSV of matches).
void WarnIfDegraded(const std::string& label,
                    const serve::MatchResponse& response) {
  if (response.degraded) {
    std::fprintf(stderr, "%s: degraded response, coverage %.2f\n",
                 label.c_str(), response.coverage);
  }
}

int RunQuery(const Args& args, Setup* s) {
  Engine engine;
  if (int rc = BuildEngine(args, s, &engine); rc != 0) return rc;

  std::printf("entity,image_id,similarity,probability\n");
  int failures = 0;
  for (const std::string& label : args.entities) {
    graph::VertexId v = s->builder.graph().FindVertex(label);
    if (v < 0) {
      std::fprintf(stderr, "%s: no such entity\n", label.c_str());
      ++failures;
      continue;
    }
    serve::MatchRequest request;
    request.vertex = v;
    request.k = args.k;
    request.min_probability = args.min_probability;
    request.deadline_micros = args.deadline_us;
    auto result = engine.Match(request);
    if (!result.ok()) {
      std::fprintf(stderr, "%s: %s\n", label.c_str(),
                   result.status().ToString().c_str());
      ++failures;
      continue;
    }
    WarnIfDegraded(label, result.value());
    PrintMatches(stdout, label, result.value());
  }
  engine.PrintStats();
  engine.Shutdown();
  if (!WriteObservability(args)) return 1;
  return failures == 0 ? 0 : 1;
}

/// A stdin-batch query line is malformed when it is blank (empty or
/// whitespace-only) or carries ASCII control characters — neither can
/// be an entity label, and silently skipping them would make a
/// truncated or corrupted query file look fully served.
bool IsMalformedQueryLine(const std::string& line) {
  bool has_content = false;
  for (char c : line) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (u < 0x20 || u == 0x7f) return true;  // control character
    if (c != ' ') has_content = true;
  }
  return !has_content;
}

int RunStdinBatch(const Args& args, Setup* s) {
  Engine engine;
  if (int rc = BuildEngine(args, s, &engine); rc != 0) return rc;

  std::vector<std::string> labels;
  int64_t malformed = 0;
  int64_t line_number = 0;
  for (std::string line; std::getline(std::cin, line);) {
    ++line_number;
    if (!line.empty() && line.back() == '\r') line.pop_back();  // CRLF input
    if (IsMalformedQueryLine(line)) {
      // Machine-readable rejection on stderr; the run exits nonzero
      // instead of pretending the query file was fully served.
      std::fprintf(stderr,
                   "{\"error\":\"malformed_query\",\"line\":%lld,"
                   "\"query\":%s}\n",
                   static_cast<long long>(line_number),
                   obs::JsonString(line).c_str());
      ++malformed;
      continue;
    }
    labels.push_back(line);
  }

  std::printf("entity,image_id,similarity,probability\n");
  std::atomic<size_t> cursor{0};
  std::atomic<int64_t> failed{0};
  std::mutex out_mu;
  const int64_t clients = std::max<int64_t>(1, args.clients);
  std::vector<std::thread> workers;
  workers.reserve(clients);
  for (int64_t c = 0; c < clients; ++c) {
    workers.emplace_back([&] {
      for (;;) {
        const size_t i = cursor.fetch_add(1);
        if (i >= labels.size()) return;
        const std::string& label = labels[i];
        graph::VertexId v = s->builder.graph().FindVertex(label);
        if (v < 0) {
          std::lock_guard<std::mutex> lock(out_mu);
          std::fprintf(stderr, "%s: no such entity\n", label.c_str());
          ++failed;
          continue;
        }
        serve::MatchRequest request;
        request.vertex = v;
        request.k = args.k;
        request.min_probability = args.min_probability;
        request.deadline_micros = args.deadline_us;
        auto result = engine.Match(request);
        std::lock_guard<std::mutex> lock(out_mu);
        if (!result.ok()) {
          std::fprintf(stderr, "%s: %s\n", label.c_str(),
                       result.status().ToString().c_str());
          ++failed;
        } else {
          WarnIfDegraded(label, result.value());
          PrintMatches(stdout, label, result.value());
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  engine.PrintStats();
  engine.Shutdown();
  if (!WriteObservability(args)) return 1;
  return (failed.load() == 0 && malformed == 0) ? 0 : 1;
}

std::atomic<bool> g_http_stop{false};
void HandleStopSignal(int) { g_http_stop.store(true); }

/// `crossem_serve http`: the network front end. Serves /v1/match,
/// /healthz, /metrics, and /admin/snapshot until SIGINT/SIGTERM, then
/// stops the listener, drains in-flight requests, and prints the final
/// stats line.
int RunHttp(const Args& args, Setup* s) {
  Engine engine;
  if (int rc = BuildEngine(args, s, &engine); rc != 0) return rc;

  net::MatchAppOptions app_options;
  app_options.admission.max_inflight = args.max_inflight;
  app_options.admission.tenant_rate = args.tenant_rate;
  app_options.admission.tenant_burst = args.tenant_burst;
  app_options.default_k = args.k;
  // Every request gets a trace; the tracez buffer tail-samples which
  // completed traces are retained for /debug/tracez.
  app_options.trace_all_requests = true;
  net::MatchApp app(&s->builder.graph(), engine.manager.get(), app_options);

  // Flight recorder behind /metrics/history (--history-interval-ms 0
  // disables the sampler and the route answers 404).
  std::unique_ptr<obs::TimeSeriesRecorder> recorder;
  if (args.history_interval_ms > 0) {
    obs::TimeSeriesOptions ts_options;
    ts_options.interval_micros = args.history_interval_ms * 1000;
    recorder = std::make_unique<obs::TimeSeriesRecorder>(
        &obs::MetricsRegistry::Default(), ts_options);
    app.set_recorder(recorder.get());
    recorder->Start();
  }

  net::HttpServerOptions server_options;
  server_options.host = args.host;
  server_options.port = static_cast<int>(args.port);
  server_options.workers = args.http_threads;
  net::HttpServer server(
      server_options,
      [&app](const net::HttpRequest& request) { return app.Handle(request); });
  if (auto st = server.Start(); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "listening on %s:%d\n", args.host.c_str(),
               server.port());

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  while (!g_http_stop.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::fprintf(stderr, "shutting down\n");
  server.Stop();
  if (recorder != nullptr) recorder->Stop();
  engine.PrintStats();
  engine.Shutdown();
  if (!WriteObservability(args)) return 1;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    PrintUsage();
    return 2;
  }
  if (!args.trace_out.empty()) obs::SetTraceEnabled(true);
  Setup setup;
  if (int rc = BuildSetup(args, &setup); rc != 0) return rc;
  if (args.mode == "build-index") return RunBuildIndex(args, &setup);
  if (args.mode == "query") return RunQuery(args, &setup);
  if (args.mode == "http") return RunHttp(args, &setup);
  return RunStdinBatch(args, &setup);
}
