// serve_hot and serve_scan: POST /v1/match over in-process HTTP
// (MatchApp + HttpServer + SnapshotManager) under open-loop Poisson load.
//
// serve_hot: one shard over a flat f32 index of the small test
// repository; Zipf popularity over a working set the embedding cache
// holds, so request time goes to net, the serve front half and obs.
// serve_scan: an int8 index of 131072 rows at dim 32 (jittered copies of
// real image embeddings), hash-sharded 4 ways with exact re-rank;
// uniform popularity over 8x the cache, so most requests run the text
// tower.
//
// A run has three phases after set-up and warm-up: the read path at the
// workload's nominal rate (latency), rollouts (LoadAndSwap of a CEMCKPT2
// copy of the index under the same load), and a closed loop on every
// connection (throughput at saturation).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "clip/clip.h"
#include "core/crossem.h"
#include "data/dataset.h"
#include "graph/json.h"
#include "loadgen.h"
#include "net/http.h"
#include "net/match_app.h"
#include "net/server.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/index.h"
#include "serve/snapshot.h"
#include "text/tokenizer.h"
#include "util/memory_tracker.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace cx = crossem;
using cx::serve::quant::QuantFormat;

constexpr int64_t kTopK = 10;
constexpr int kConnections = 4;  // = nproc of the reference host
constexpr int64_t kMaxSaturationRequests = 200000;
constexpr double kRateSliceS = 0.5;

struct ServeSpec {
  int64_t classes;
  int64_t images_per_class;
  int64_t embed_dim;
  int64_t index_rows;  // 0: index the test images as encoded
  QuantFormat format;
  int64_t shards;
  int64_t cache_capacity;
  double zipf_s;  // 0: uniform popularity
  double nominal_qps;
};

ServeSpec SpecFor(const std::string& workload) {
  if (workload == "serve_hot") {
    return {256, 2, 12, 0, QuantFormat::kF32, 1, 4096, 1.0, 1000.0};
  }
  return {1024, 2, 32, 131072, QuantFormat::kInt8, 4, 128, 0.0, 150.0};
}

struct Stack {
  cx::data::CrossModalDataset dataset;
  std::unique_ptr<cx::clip::ClipModel> model;
  std::unique_ptr<cx::text::Tokenizer> tokenizer;
  std::unique_ptr<cx::core::CrossEm> matcher;
  std::vector<std::string> entities;  // entity labels, class order
  std::vector<float> rows;            // L2-normalized index rows
  int64_t dim = 0;
  std::vector<std::string> ids;
  std::unique_ptr<cx::serve::SnapshotManager> manager;
  std::unique_ptr<cx::net::MatchApp> app;
  std::unique_ptr<cx::net::HttpServer> server;

  double data_build_s = 0.0;
  double encode_images_s = 0.0;
  int64_t images_encoded = 0;

  int64_t num_rows() const { return static_cast<int64_t>(ids.size()); }
};

void Normalize(float* v, int64_t dim) {
  double norm = 0.0;
  for (int64_t d = 0; d < dim; ++d) norm += static_cast<double>(v[d]) * v[d];
  const float inv = norm > 0.0 ? static_cast<float>(1.0 / std::sqrt(norm)) : 0.0f;
  for (int64_t d = 0; d < dim; ++d) v[d] *= inv;
}

std::unique_ptr<Stack> BuildStack(const ServeSpec& spec, uint64_t seed,
                                  bool trace, const std::string& index_path) {
  auto s = std::make_unique<Stack>();
  double t0 = NowSeconds();
  cx::data::DatasetConfig dc = cx::data::CubLikeConfig(1.0);
  dc.world.num_classes = spec.classes;
  dc.images_per_class = spec.images_per_class;
  dc.seed = 1000 + seed;
  dc.world.seed = 2000 + seed;
  s->dataset = cx::data::BuildDataset(dc);
  for (cx::graph::VertexId v : s->dataset.entities) {
    s->entities.push_back(s->dataset.graph.VertexLabel(v));
  }
  cx::clip::ClipConfig cc;
  cc.vocab_size = s->dataset.vocab.size();
  cc.text_context = 32;
  cc.model_dim = 16;
  cc.text_layers = 1;
  cc.text_heads = 2;
  cc.image_layers = 1;
  cc.image_heads = 2;
  cc.patch_dim = s->dataset.world->config().patch_dim;
  cc.max_patches = 16;
  cc.embed_dim = spec.embed_dim;
  cx::Rng rng(3000 + seed);
  s->model = std::make_unique<cx::clip::ClipModel>(cc, &rng);
  s->tokenizer =
      std::make_unique<cx::text::Tokenizer>(&s->dataset.vocab, cc.text_context);
  cx::core::CrossEmOptions options;
  options.prompt_mode = cx::core::PromptMode::kHard;
  s->matcher = std::make_unique<cx::core::CrossEm>(
      s->model.get(), &s->dataset.graph, s->tokenizer.get(), options);
  s->data_build_s = NowSeconds() - t0;

  // Index rows: the test images as encoded (serve_hot), or jittered
  // copies of every encoded image up to index_rows (serve_scan).
  t0 = NowSeconds();
  std::vector<int64_t> which = spec.index_rows == 0
                                   ? s->dataset.TestImageIndices()
                                   : std::vector<int64_t>();
  if (spec.index_rows != 0) {
    for (size_t i = 0; i < s->dataset.images.size(); ++i) {
      which.push_back(static_cast<int64_t>(i));
    }
  }
  cx::Tensor encoded = s->matcher->EncodeImages(s->dataset.StackImages(which));
  s->encode_images_s = NowSeconds() - t0;
  s->images_encoded = encoded.size(0);

  const int64_t bases = encoded.size(0);
  s->dim = encoded.size(1);
  const int64_t n = spec.index_rows == 0 ? bases : spec.index_rows;
  s->rows.resize(static_cast<size_t>(n * s->dim));
  std::mt19937_64 jitter(4000 + seed);
  std::normal_distribution<float> noise(0.0f, 0.05f);
  for (int64_t r = 0; r < n; ++r) {
    float* row = s->rows.data() + r * s->dim;
    const float* base = encoded.data() + (r % bases) * s->dim;
    std::copy(base, base + s->dim, row);
    Normalize(row, s->dim);
    if (r >= bases) {
      for (int64_t d = 0; d < s->dim; ++d) row[d] += noise(jitter);
      Normalize(row, s->dim);
    }
    s->ids.push_back("img" + std::to_string(r));
  }
  auto index = std::make_unique<cx::serve::FlatIndex>(spec.format);
  if (!index
           ->Add(cx::Tensor::FromVector({n, s->dim}, s->rows), s->ids)
           .ok()) {
    return nullptr;
  }
  index->set_model_fingerprint(s->matcher->EncoderFingerprint());
  if (!index->Save(index_path).ok()) return nullptr;

  cx::serve::EngineOptions eo;
  eo.shards = spec.shards;
  eo.base.max_wait_micros = 500;
  eo.base.cache_capacity = spec.cache_capacity;
  s->manager =
      std::make_unique<cx::serve::SnapshotManager>(s->matcher.get(), eo);
  if (!s->manager->SwapIndex(std::move(index), "perfbench").ok()) {
    return nullptr;
  }
  cx::net::MatchAppOptions app_options;
  app_options.admission.max_inflight = 64;
  // Capacity, not quota policy, is under test: one unlimited tenant.
  app_options.admission.tenant_rate = 1e6;
  app_options.admission.tenant_burst = 1e6;
  app_options.trace_all_requests = trace;
  s->app = std::make_unique<cx::net::MatchApp>(&s->dataset.graph,
                                               s->manager.get(), app_options);
  cx::net::HttpServerOptions so;
  so.port = 0;
  so.workers = 4;
  cx::net::MatchApp* app = s->app.get();
  s->server = std::make_unique<cx::net::HttpServer>(
      so, [app](const cx::net::HttpRequest& r) { return app->Handle(r); });
  if (!s->server->Start().ok()) return nullptr;
  return s;
}

std::function<int32_t()> MakePicker(const ServeSpec& spec, int64_t entities,
                                    uint64_t seed) {
  auto rng = std::make_shared<std::mt19937_64>(seed);
  if (spec.zipf_s <= 0.0) {
    auto dist = std::make_shared<std::uniform_int_distribution<int32_t>>(
        0, static_cast<int32_t>(entities - 1));
    return [rng, dist]() { return (*dist)(*rng); };
  }
  // Zipf over a seeded permutation, so the popular entities differ by
  // seed.
  std::vector<double> weights(static_cast<size_t>(entities));
  for (int64_t r = 0; r < entities; ++r) {
    weights[static_cast<size_t>(r)] = 1.0 / std::pow(r + 1.0, spec.zipf_s);
  }
  auto perm = std::make_shared<std::vector<int32_t>>(entities);
  for (int32_t i = 0; i < entities; ++i) (*perm)[static_cast<size_t>(i)] = i;
  std::shuffle(perm->begin(), perm->end(), *rng);
  auto dist = std::make_shared<std::discrete_distribution<int32_t>>(
      weights.begin(), weights.end());
  return [rng, dist, perm]() {
    return (*perm)[static_cast<size_t>((*dist)(*rng))];
  };
}

// Structural checks of one 200 response; fills the returned rows.
// Returns an empty string when the response is well formed.
std::string ValidateResponse(const Stack& s, const std::string& entity,
                             const std::string& body,
                             std::vector<int64_t>* rows) {
  auto doc = cx::graph::ParseJson(body);
  if (!doc.ok()) return "unparseable body";
  const cx::graph::JsonValue* e = doc.value().Find("entity");
  if (e == nullptr || !e->is_string() || e->string_value() != entity) {
    return "wrong entity";
  }
  const cx::graph::JsonValue* matches = doc.value().Find("matches");
  if (matches == nullptr || !matches->is_array()) return "no matches array";
  const auto& items = matches->array_items();
  if (static_cast<int64_t>(items.size()) != kTopK) return "wrong row count";
  rows->clear();
  double prev = 2.0;
  for (const cx::graph::JsonValue& m : items) {
    const cx::graph::JsonValue* id = m.Find("image_id");
    const cx::graph::JsonValue* image = m.Find("image");
    const cx::graph::JsonValue* sim = m.Find("similarity");
    if (id == nullptr || !id->is_string() || image == nullptr ||
        !image->is_number() || sim == nullptr || !sim->is_number()) {
      return "malformed match row";
    }
    const int64_t row = static_cast<int64_t>(image->number_value());
    if (row < 0 || row >= s.num_rows() ||
        s.ids[static_cast<size_t>(row)] != id->string_value()) {
      return "id not in the live index";
    }
    if (sim->number_value() > prev) return "similarities not descending";
    prev = sim->number_value();
    rows->push_back(row);
  }
  return "";
}

std::vector<float> QueryEmbedding(const Stack& s, int32_t entity) {
  cx::Tensor e = s.matcher->EncodeVertices(
      {s.dataset.entities[static_cast<size_t>(entity)]});
  return std::vector<float>(e.data(), e.data() + e.size(1));
}

struct PhaseCheck {
  int64_t ok = 0;
  int64_t non_ok = 0;      // non-200 answers and transport errors
  int64_t malformed = 0;   // 200 answers that fail a structural check
  int64_t wrong_top1 = 0;  // serve_hot: top-1 differs from the exact scan
  double recall_sum = 0.0; // serve_scan: sum of per-response recall@10
  std::string first_error;
};

// Checks every 200 response of a phase against the live index and the
// exact references (computed once per distinct entity).
void CheckPhase(const Stack& s, const ServeSpec& spec, const PhaseResult& p,
                const cx::serve::FlatIndex& reference,
                std::vector<std::vector<int64_t>>* exact, PhaseCheck* c) {
  std::vector<int64_t> rows;
  for (size_t i = 0; i < p.outcomes.size(); ++i) {
    const Outcome& o = p.outcomes[i];
    const int32_t entity = p.schedule[i].entity;
    if (o.status != 200) {
      ++c->non_ok;
      continue;
    }
    const std::string err = ValidateResponse(
        s, s.entities[static_cast<size_t>(entity)], o.body, &rows);
    if (!err.empty()) {
      ++c->malformed;
      if (c->first_error.empty()) c->first_error = err;
      continue;
    }
    ++c->ok;
    std::vector<int64_t>& ref = (*exact)[static_cast<size_t>(entity)];
    if (ref.empty()) {
      for (const auto& hit : reference.Search(QueryEmbedding(s, entity).data(),
                                              kTopK)) {
        ref.push_back(hit.id);
      }
    }
    if (spec.index_rows == 0) {
      if (rows[0] != ref[0]) ++c->wrong_top1;
    } else {
      int64_t hit = 0;
      for (int64_t r : rows) hit += std::count(ref.begin(), ref.end(), r);
      c->recall_sum += static_cast<double>(hit) / kTopK;
    }
  }
}

// Median over equal time slices of a phase of each slice's quantile q,
// with as many slices (up to `max_slices`) as keep `min_samples` in
// each: a stall then moves one slice, not the reported value.
double SlicedQuantileMs(const PhaseResult& p, double seconds, double q,
                        int64_t min_samples, int max_slices) {
  const int slices = static_cast<int>(
      std::clamp<int64_t>(p.sent() / min_samples, 1, max_slices));
  std::vector<double> values;
  const int64_t slice_us = static_cast<int64_t>(seconds * 1e6 / slices);
  for (int i = 0; i < slices; ++i) {
    values.push_back(
        Percentile(p.LatenciesMs(i * slice_us, (i + 1) * slice_us), q));
  }
  return Median(values);
}

// Median over kRateSliceS slices of a closed-loop phase of the answers
// completed per second.
double MedianSliceRate(const PhaseResult& p, double seconds) {
  const int slices = std::max(1, static_cast<int>(seconds / kRateSliceS));
  std::vector<double> done(static_cast<size_t>(slices), 0.0);
  for (size_t i = 0; i < p.outcomes.size(); ++i) {
    if (p.outcomes[i].status != 200) continue;
    const double t = static_cast<double>(p.schedule[i].due_us +
                                         p.outcomes[i].latency_us) * 1e-6;
    const int slice = static_cast<int>(t / kRateSliceS);
    if (slice < slices) done[static_cast<size_t>(slice)] += 1.0 / kRateSliceS;
  }
  return Median(done);
}

double CounterValue(const std::string& name) {
  return static_cast<double>(
      cx::obs::MetricsRegistry::Default().GetCounter(name)->Value());
}

}  // namespace

int RunServe(const Args& args, Report* report) {
  const ServeSpec spec = SpecFor(args.workload);
  const uint64_t seed = args.seed;
  const std::string index_path = args.scratch_dir + "/index.cemckpt";
  if (args.trace) cx::obs::SetTraceEnabled(false);

  // One set-up per process (run.py times extra set-ups in their own
  // processes), so memory figures never include an earlier set-up.
  const double setup_t0 = NowSeconds();
  const double setup_cpu0 = ProcessCpuSeconds();
  std::unique_ptr<Stack> stack = BuildStack(spec, seed, args.trace, index_path);
  if (stack == nullptr) {
    std::fprintf(stderr, "serve set-up failed\n");
    return 1;
  }
  report->Metric("setup_s", ProcessCpuSeconds() - setup_cpu0, "s");
  report->Metric("wall.setup_s", NowSeconds() - setup_t0, "s");
  if (args.setup_only) return 0;
  Stack& s = *stack;
  const int port = s.server->port();
  std::printf("set-up: %lld rows x %lld, %zu entities, port %d\n",
              static_cast<long long>(s.num_rows()),
              static_cast<long long>(s.dim), s.entities.size(), port);

  auto pick = MakePicker(spec, static_cast<int64_t>(s.entities.size()),
                         seed * 7919 + 11);
  auto run = [&](double qps, double seconds, uint64_t salt) {
    return RunPhase(port, s.entities, kTopK,
                    PoissonSchedule(qps, seconds, seed * 7919 + salt, pick),
                    kConnections);
  };
  // Warm-up, not timed: every entity once (serve_hot's working set fills
  // the cache), then a short phase at the nominal rate.
  auto warm_up = [&]() {
    std::vector<Arrival> fill;
    for (size_t e = 0; e < s.entities.size() && spec.zipf_s > 0.0; ++e) {
      fill.push_back(Arrival{0, static_cast<int32_t>(e)});
    }
    RunPhase(port, s.entities, kTopK, fill, kConnections);
    run(spec.nominal_qps, 0.5, 13);
  };
  warm_up();

  // Phase 1, read path: latency at the fixed nominal rate.
  const double read_s = args.seconds * 0.5;
  const double cpu0 = ProcessCpuSeconds();
  const CpuTicks ticks0 = ReadCpuTicks();
  const double hits0 = CounterValue("tensor_pool_hits_total");
  const double misses0 = CounterValue("tensor_pool_misses_total");
  if (args.trace) {
    cx::obs::ClearTrace();
    cx::obs::SetTraceEnabled(true);
  }
  const double wall0 = NowSeconds();
  PhaseResult nominal = run(spec.nominal_qps, read_s, 17);
  const double nominal_wall = NowSeconds() - wall0;
  if (args.trace) cx::obs::SetTraceEnabled(false);
  const double nominal_cpu = ProcessCpuSeconds() - cpu0;
  const double steal_share = StealShare(ticks0, ReadCpuTicks());
  // Server CPU per answered request: the process's CPU time minus the
  // generator threads' own.
  const double op_cpu_ms =
      (nominal_cpu - nominal.client_cpu_s) * 1e3 /
      static_cast<double>(std::max<int64_t>(nominal.Succeeded(), 1));
  // Memory high-water marks of the process through set-up and the read
  // phase; the phases after it keep every response body for the checks.
  const double peak_rss = PeakRssMb();
  const double peak_tensor_mb =
      static_cast<double>(cx::MemoryTracker::Instance().peak_bytes()) /
      (1024.0 * 1024.0);

  // Phase 2, rollouts: LoadAndSwap of the saved CEMCKPT2 copy every
  // 0.25 s under the same load (each swap also empties the cache).
  std::vector<PhaseResult> phases;
  std::vector<double> swap_s, swap_cpu_s;
  int64_t swap_failures = 0;
  if (!args.trace) {
    std::atomic<bool> stop{false};
    std::thread swapper([&]() {
      while (!stop.load()) {
        for (int i = 0; i < 5 && !stop.load(); ++i) {
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
        if (stop.load()) break;
        const double t0 = NowSeconds();
        const double c0 = ThreadCpuSeconds();
        if (s.manager->LoadAndSwap(index_path).ok()) {
          swap_s.push_back(NowSeconds() - t0);
          swap_cpu_s.push_back(ThreadCpuSeconds() - c0);
        } else {
          ++swap_failures;
        }
      }
    });
    phases.push_back(run(spec.nominal_qps, args.seconds * 0.15, 19));
    stop.store(true);
    swapper.join();
    warm_up();
  }

  // Phase 3, capacity: a closed loop on every connection (each sends its
  // next request as soon as the last is answered) for a fixed time.
  const size_t first_saturation = phases.size();
  double saturation_qps = 0.0;
  double saturation_cpu_ms = 0.0;
  if (!args.trace) {
    const double saturation_s = args.seconds * 0.35;
    std::vector<Arrival> flood(kMaxSaturationRequests);
    for (Arrival& a : flood) a.entity = pick();
    const double sat_cpu0 = ProcessCpuSeconds();
    PhaseResult p = RunPhase(port, s.entities, kTopK, std::move(flood),
                             kConnections, saturation_s);
    saturation_cpu_ms = (ProcessCpuSeconds() - sat_cpu0 - p.client_cpu_s) *
                        1e3 /
                        static_cast<double>(std::max<int64_t>(p.Succeeded(), 1));
    saturation_qps = MedianSliceRate(p, saturation_s);
    phases.push_back(std::move(p));
  }

  // Output checks over every answered request, against an exact f32
  // FlatIndex over the same rows.
  cx::serve::FlatIndex reference;
  if (!reference.Add(cx::Tensor::FromVector({s.num_rows(), s.dim}, s.rows), s.ids)
           .ok()) {
    return 1;
  }
  std::vector<std::vector<int64_t>> exact(s.entities.size());
  PhaseCheck fixed_rate, saturated;
  CheckPhase(s, spec, nominal, reference, &exact, &fixed_rate);
  report->AddAttempted(nominal.sent());
  for (size_t i = 0; i < phases.size(); ++i) {
    CheckPhase(s, spec, phases[i], reference, &exact,
               i < first_saturation ? &fixed_rate : &saturated);
    report->AddAttempted(phases[i].sent());
  }
  const int64_t malformed = fixed_rate.malformed + saturated.malformed;
  const int64_t answered = fixed_rate.ok + saturated.ok;
  // Refusals at saturation show where capacity ends; only the fixed
  // nominal rate counts them as failures.
  report->AddFailed(fixed_rate.non_ok);
  report->Check("responses_well_formed", malformed == 0,
                std::to_string(malformed) + " malformed of " +
                    std::to_string(answered + malformed) + " " +
                    fixed_rate.first_error + saturated.first_error);
  report->Check("nominal_rate_all_answered", fixed_rate.non_ok == 0,
                std::to_string(fixed_rate.non_ok) + " not 200");
  double recall = 1.0;
  if (spec.index_rows == 0) {
    const int64_t wrong = fixed_rate.wrong_top1 + saturated.wrong_top1;
    report->Check("top1_equals_exact_flat_search", wrong == 0,
                  std::to_string(wrong) + " of " + std::to_string(answered));
  } else {
    recall = answered > 0 ? (fixed_rate.recall_sum + saturated.recall_sum) /
                                static_cast<double>(answered)
                          : 0.0;
    report->Check("recall_at_10_vs_exact_f32", recall >= 0.98,
                  "recall@10 " + std::to_string(recall));
  }
  if (!args.trace) {
    report->Check("snapshot_swaps", swap_failures == 0 && !swap_s.empty(),
                  std::to_string(swap_s.size()) + " swaps, " +
                      std::to_string(swap_failures) + " failed");
  }

  const double p50 = SlicedQuantileMs(nominal, read_s, 0.5, 200, 8);
  const double p90 = SlicedQuantileMs(nominal, read_s, 0.9, 200, 8);
  const double p99 = SlicedQuantileMs(nominal, read_s, 0.99, 1000, 8);
  const double rollout_p99 =
      phases.empty() ? 0.0
                     : Percentile(phases[0].LatenciesMs(0, INT64_MAX), 0.99);
  const std::vector<double> all_ms = nominal.LatenciesMs(0, INT64_MAX);
  std::printf("nominal %.0f qps: sent %lld ok %lld achieved %.1f qps | "
              "p90 %.4f p95 %.4f p99 %.4f ms\n",
              spec.nominal_qps, static_cast<long long>(nominal.sent()),
              static_cast<long long>(nominal.Succeeded()),
              nominal.AchievedQps(), Percentile(all_ms, 0.9),
              Percentile(all_ms, 0.95), Percentile(all_ms, 0.99));
  std::printf("info   latency_p50_ms %.4f ms | latency_p90_ms %.4f ms | "
              "latency_p99_ms %.4f ms | "
              "rollout_p99_ms %.4f ms | saturation_qps %.1f 1/s | swap_s %.5f s | "
              "recall_at_10 %.4f | error_rate %.6f\n",
              p50, p90, p99, rollout_p99, saturation_qps, Median(swap_s), recall,
              static_cast<double>(report->failed()) /
                  static_cast<double>(std::max<int64_t>(report->attempted(), 1)));

  std::printf("info   steal_share %.3f | op_cpu_ms %.4f ms | "
              "saturation_cpu_ms %.4f ms | swap_cpu_s %.5f s\n",
              steal_share, op_cpu_ms, saturation_cpu_ms, Median(swap_cpu_s));
  if (!args.trace) {
    report->Metric("op_cpu_ms", op_cpu_ms, "ms");
    report->Metric("update_cpu_s", Median(swap_cpu_s), "s");
    report->Metric("util.peak_rss_mb", peak_rss, "MB");
    report->Metric("tensor.peak_mb", peak_tensor_mb, "MB");
    report->Metric("wall.latency_p50_ms", p50, "ms");
    report->Metric("wall.latency_p90_ms", p90, "ms");
    report->Metric("wall.latency_p99_ms", p99, "ms");
    report->Metric("wall.rate_per_s", saturation_qps, "1/s");
    report->Metric("wall.update_s", Median(swap_s), "s");
    report->Metric("host.steal_share", steal_share, "ratio");
    return 0;
  }

  // Traced run: per-layer metrics.
  report->Metric("op_cpu_ms", op_cpu_ms, "ms");
  const auto spans = AggregateSpans();
  auto span = [&](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() ? SpanTotals{} : it->second;
  };
  const double requests = std::max<double>(1.0, static_cast<double>(span("request").count));
  for (const char* name : {"request", "admission", "service", "gather",
                           "shard_attempt", "shard_search"}) {
    const std::string layer =
        std::string(name) == "request" || std::string(name) == "admission"
            ? "net."
            : "serve.";
    report->Metric(layer + name + "_self_us",
                   span(name).self_s * 1e6 / requests, "us");
  }
  const SpanTotals gemm = span("gemm");
  report->Metric("tensor.gemm_s", gemm.total_s, "s");
  report->Metric("tensor.gemm_calls", static_cast<double>(gemm.count), "count");
  report->Metric("tensor.gemm_gflops",
                 gemm.total_s > 0.0 ? gemm.flops / gemm.total_s * 1e-9 : 0.0,
                 "GFLOP/s");
  report->Metric("util.parallel_regions",
                 static_cast<double>(span("parallel_region").count), "count");
  report->Metric("util.cpu_per_wall", nominal_cpu / nominal_wall, "ratio");
  const double hits = CounterValue("tensor_pool_hits_total") - hits0;
  const double misses = CounterValue("tensor_pool_misses_total") - misses0;
  report->Metric("tensor.pool_hit_rate",
                 hits + misses > 0.0 ? hits / (hits + misses) : 0.0, "ratio");
  report->Metric("bench.late_p99_ms", Percentile(nominal.LateMs(), 0.99), "ms");
  report->Metric("data.build_s", s.data_build_s, "s");
  report->Metric("core.encode_images_us",
                 s.encode_images_s * 1e6 / static_cast<double>(s.images_encoded),
                 "us");

  // Single-call costs of the public functions on the request path.
  std::vector<std::vector<float>> queries;
  for (int32_t e = 0; e < 64; ++e) queries.push_back(QueryEmbedding(s, e));
  int32_t next = 0;
  auto vertex = [&]() {
    return s.dataset.entities[static_cast<size_t>(next++ % s.entities.size())];
  };
  report->Metric("core.encode_vertices_b1_us",
                 MeanMicros(64, [&] { s.matcher->EncodeVertices({vertex()}); }),
                 "us");
  report->Metric("core.encode_vertices_b8_us", MeanMicros(16, [&] {
                   std::vector<cx::graph::VertexId> batch;
                   for (int i = 0; i < 8; ++i) batch.push_back(vertex());
                   s.matcher->EncodeVertices(batch);
                 }),
                 "us");
  double t0 = NowSeconds();
  auto loaded = cx::serve::EmbeddingIndex::Load(index_path);
  report->Metric("nn.index_load_s", NowSeconds() - t0, "s");
  if (loaded.ok()) {
    const cx::serve::EmbeddingIndex& idx = *loaded.value();
    report->Metric("serve.search_us", MeanMicros(128, [&] {
                     idx.Search(queries[static_cast<size_t>(next++ % 64)].data(),
                                kTopK);
                   }),
                   "us");
  }
  {
    cx::serve::SnapshotLease lease = s.manager->Acquire();
    const cx::serve::ServiceStats stats = lease->Stats();
    report->Metric("serve.batch_size_mean", stats.batch_size_mean, "count");
    report->Metric("serve.cache_hit_rate", stats.CacheHitRate(), "ratio");
    report->Metric("serve.index_bytes_per_row",
                   static_cast<double>(lease->MemoryBytes()) /
                       static_cast<double>(s.num_rows()),
                   "B");
    report->Metric("serve.match_us", MeanMicros(128, [&] {
                     cx::serve::MatchRequest req;
                     req.vertex = vertex();
                     req.k = kTopK;
                     lease->Match(req);
                   }),
                   "us");
  }
  const cx::obs::Histogram* coverage =
      cx::obs::MetricsRegistry::Default().GetHistogram(
          "crossem_serve_coverage_percent");
  report->Metric("serve.coverage_mean", coverage->Mean() / 100.0, "ratio");
  report->Metric("serve.shard_retries",
                 CounterValue("crossem_shard_retries_total"), "count");
  report->Metric("serve.shard_hedges",
                 CounterValue("crossem_shard_hedges_total"), "count");
  report->Metric("net.admission_rejections",
                 CounterValue("crossem_net_admission_rejections_total"),
                 "count");
  report->Metric("net.overload_sheds",
                 CounterValue("crossem_http_overload_sheds_total"), "count");

  cx::net::HttpRequest request;
  request.method = "POST";
  request.target = "/v1/match";
  request.version = "HTTP/1.1";
  request.headers = {{"Host", "127.0.0.1"},
                     {"Content-Type", "application/json"},
                     {"x-tenant", "bench"}};
  request.body = "{\"entity\":" + cx::obs::JsonString(s.entities[0]) +
                 ",\"k\":10}";
  const std::string wire = cx::net::SerializeRequest(request);
  report->Metric("net.parse_us", MeanMicros(20000, [&] {
                   cx::net::HttpParser parser;
                   if (parser.Feed(wire.data(), wire.size()).ok() &&
                       parser.HasMessage()) {
                     parser.TakeRequest();
                   }
                 }),
                 "us");
  report->Metric("net.handle_us",
                 MeanMicros(256, [&] { s.app->Handle(request); }), "us");
  ReportHostRoofline(report);
  return 0;
}

}  // namespace perfbench
