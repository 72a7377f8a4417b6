// Resilience benchmark for the sharded serving layer, written to
// BENCH_resilience.json.
//
// Arms (same query stream, 4-shard flat split of one real encoder's
// image embeddings, deterministic fault schedules):
//   1. healthy     — no faults: the fault-free baseline for latency,
//                    coverage (must be 1.0) and class recall@10.
//   2. blackhole   — 1 of 4 shards drops every call. After the circuit
//                    breaker opens, queries must keep succeeding with
//                    partial coverage; acceptance: zero errors, recall
//                    >= 0.95x healthy, steady-state p99 <= 2x healthy.
//   3. delay_hedge — every 2nd call to one shard stalls 25ms; hedged
//                    requests must keep full coverage without eating
//                    the delay on every query.
//
// Client-side percentiles (not service-side): each query is timed at
// the caller, which is what an SLO sees. tools/check_bench_regression.py
// --resilience gates errors == 0, the blackhole coverage floor and the
// recall ratio; latency ratios are informational (CI boxes are noisy).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "clip/clip.h"
#include "data/dataset.h"
#include "serve/index.h"
#include "serve/service.h"
#include "serve/sharded.h"
#include "serve/snapshot.h"
#include "text/tokenizer.h"
#include "util/fault_injection.h"
#include "util/random.h"

namespace crossem {
namespace {

struct World {
  data::CrossModalDataset dataset;
  std::unique_ptr<clip::ClipModel> model;
  std::unique_ptr<text::Tokenizer> tokenizer;
  std::unique_ptr<core::CrossEm> matcher;
  serve::FlatIndex index;
  std::vector<int64_t> row_class;  // index row -> true entity class
};

std::unique_ptr<World> BuildWorld() {
  auto w = std::make_unique<World>();
  w->dataset = data::BuildDataset(data::CubLikeConfig(0.4));
  clip::ClipConfig cc;
  cc.vocab_size = w->dataset.vocab.size();
  cc.text_context = 32;
  cc.model_dim = 16;
  cc.text_layers = 1;
  cc.text_heads = 2;
  cc.image_layers = 1;
  cc.image_heads = 2;
  cc.patch_dim = w->dataset.world->config().patch_dim;
  cc.max_patches = 16;
  cc.embed_dim = 12;
  Rng rng(5);
  w->model = std::make_unique<clip::ClipModel>(cc, &rng);
  w->tokenizer =
      std::make_unique<text::Tokenizer>(&w->dataset.vocab, cc.text_context);
  core::CrossEmOptions options;
  options.prompt_mode = core::PromptMode::kHard;
  w->matcher = std::make_unique<core::CrossEm>(
      w->model.get(), &w->dataset.graph, w->tokenizer.get(), options);

  const std::vector<int64_t> test_rows = w->dataset.TestImageIndices();
  Tensor images = w->dataset.StackImages(test_rows);
  Tensor embeddings = w->matcher->EncodeImages(images);
  std::vector<std::string> ids;
  for (int64_t i = 0; i < embeddings.size(0); ++i) {
    ids.push_back("img" + std::to_string(i));
    w->row_class.push_back(
        w->dataset.images[static_cast<size_t>(test_rows[i])].true_class);
  }
  if (!w->index.Add(embeddings, ids).ok()) std::abort();
  w->index.set_model_fingerprint(w->matcher->EncoderFingerprint());
  return w;
}

struct Arm {
  std::string name;
  double qps = 0.0;
  int64_t latency_p50_us = 0;
  int64_t latency_p99_us = 0;
  double coverage_mean = 0.0;
  double degraded_fraction = 0.0;
  int64_t errors = 0;
  double recall_at_10 = 0.0;
  double recall_ratio = 1.0;  // vs the healthy arm
  int64_t hedges = 0;
  int64_t hedge_wins = 0;
  int64_t breaker_opens = 0;
  int64_t retries = 0;
};

serve::EngineOptions ArmOptions(const std::string& name) {
  serve::EngineOptions o;
  o.base.max_wait_micros = 0;  // lone caller: no batching
  if (name == "blackhole") {
    o.resilience.attempt_timeout_micros = 10000;
    o.resilience.max_attempts = 2;
    o.resilience.hedge_delay_micros = 3000;
    // No half-open probes mid-measurement.
    o.resilience.breaker_cooldown_micros = 600 * 1000 * 1000;
  } else if (name == "delay_hedge") {
    o.resilience.attempt_timeout_micros = 400000;  // the delay must not
    o.resilience.hedge_delay_micros = 3000;        // time out, hedges win
    o.resilience.hedge_min_samples = 1 << 30;      // pin the fixed delay
  }
  return o;
}

void ArmFaults(const std::string& name) {
  fault::Clear();
  if (name == "blackhole") {
    fault::ShardFaultSpec spec;
    spec.mode = fault::ShardFaultMode::kDrop;
    spec.shard = 1;
    fault::ArmShardFault(spec);
  } else if (name == "delay_hedge") {
    fault::ShardFaultSpec spec;
    spec.mode = fault::ShardFaultMode::kDelay;
    spec.delay_ms = 25;
    spec.shard = 0;
    spec.every = 2;
    fault::ArmShardFault(spec);
  }
}

Arm RunArm(const std::string& name, const World& w,
           const serve::ShardedIndex& sharded, int64_t rounds) {
  std::printf("== arm: %s ==\n", name.c_str());
  ArmFaults(name);
  const serve::EngineOptions options = ArmOptions(name);
  serve::MatchService service(w.matcher.get(), &sharded, options.base,
                              options.resilience);
  const auto& entities = w.dataset.entities;

  // Warmup: one pass fills the embedding cache; for the blackhole arm,
  // keep going until the breaker on the dead shard opens so the
  // measured window is the steady state an operator would see.
  for (size_t c = 0; c < entities.size(); ++c) {
    serve::MatchRequest request;
    request.vertex = entities[c];
    request.k = 10;
    (void)service.Match(request);
  }
  if (name == "blackhole") {
    for (int i = 0; i < 64 && service.breaker_state(1) !=
                                  serve::CircuitBreaker::State::kOpen;
         ++i) {
      serve::MatchRequest request;
      request.vertex = entities[static_cast<size_t>(i) % entities.size()];
      request.k = 10;
      (void)service.Match(request);
    }
  }

  Arm arm;
  arm.name = name;
  std::vector<int64_t> latencies;
  double coverage_sum = 0.0;
  int64_t degraded = 0, recall_hits = 0, total = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int64_t r = 0; r < rounds; ++r) {
    for (size_t c = 0; c < entities.size(); ++c) {
      serve::MatchRequest request;
      request.vertex = entities[c];
      request.k = 10;
      const auto q0 = std::chrono::steady_clock::now();
      auto result = service.Match(request);
      latencies.push_back(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - q0)
              .count());
      ++total;
      if (!result.ok()) {
        ++arm.errors;
        continue;
      }
      coverage_sum += result.value().coverage;
      if (result.value().degraded) ++degraded;
      for (const serve::RankedMatch& m : result.value().matches) {
        if (w.row_class[static_cast<size_t>(m.image)] ==
            static_cast<int64_t>(c)) {
          ++recall_hits;
          break;
        }
      }
    }
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  service.Shutdown();

  std::sort(latencies.begin(), latencies.end());
  arm.qps = total / seconds;
  arm.latency_p50_us = latencies[latencies.size() / 2];
  arm.latency_p99_us = latencies[latencies.size() * 99 / 100];
  arm.coverage_mean = total > arm.errors
                          ? coverage_sum / static_cast<double>(total - arm.errors)
                          : 0.0;
  arm.degraded_fraction =
      static_cast<double>(degraded) / static_cast<double>(total);
  arm.recall_at_10 =
      static_cast<double>(recall_hits) / static_cast<double>(total);
  serve::ResilienceStats rs = service.ResilienceSnapshot();
  arm.hedges = rs.hedges;
  arm.hedge_wins = rs.hedge_wins;
  arm.breaker_opens = rs.breaker_opens;
  arm.retries = rs.retries;
  fault::Clear();

  std::printf(
      "  %.0f qps  p50 %lldus  p99 %lldus  coverage %.3f  recall@10 %.3f"
      "  errors %lld  hedges %lld  opens %lld\n",
      arm.qps, static_cast<long long>(arm.latency_p50_us),
      static_cast<long long>(arm.latency_p99_us), arm.coverage_mean,
      arm.recall_at_10, static_cast<long long>(arm.errors),
      static_cast<long long>(arm.hedges),
      static_cast<long long>(arm.breaker_opens));
  return arm;
}

void WriteJson(const std::string& path, const std::vector<Arm>& arms) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"resilience\": [\n");
  for (size_t i = 0; i < arms.size(); ++i) {
    const Arm& a = arms[i];
    std::fprintf(
        f,
        "    {\"arm\": \"%s\", \"qps\": %.1f, \"latency_p50_us\": %lld, "
        "\"latency_p99_us\": %lld, \"coverage_mean\": %.4f, "
        "\"degraded_fraction\": %.4f, \"errors\": %lld, "
        "\"recall_at_10\": %.4f, \"recall_ratio\": %.4f, "
        "\"hedges\": %lld, \"hedge_wins\": %lld, \"breaker_opens\": %lld, "
        "\"retries\": %lld}%s\n",
        a.name.c_str(), a.qps, static_cast<long long>(a.latency_p50_us),
        static_cast<long long>(a.latency_p99_us), a.coverage_mean,
        a.degraded_fraction, static_cast<long long>(a.errors), a.recall_at_10,
        a.recall_ratio, static_cast<long long>(a.hedges),
        static_cast<long long>(a.hedge_wins),
        static_cast<long long>(a.breaker_opens),
        static_cast<long long>(a.retries), i + 1 < arms.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace
}  // namespace crossem

int main(int argc, char** argv) {
  int64_t rounds = 8;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") rounds = 3;
  }
  const char* env = std::getenv("CROSSEM_BENCH_JSON");
  const std::string path = env != nullptr ? env : "BENCH_resilience.json";

  auto world = crossem::BuildWorld();
  crossem::serve::ShardedIndexOptions so;
  so.num_shards = 4;
  auto sharded = crossem::serve::ShardedIndex::Partition(world->index, so);
  if (!sharded.ok()) {
    std::fprintf(stderr, "partition failed: %s\n",
                 sharded.status().ToString().c_str());
    return 1;
  }

  std::vector<crossem::Arm> arms;
  for (const char* name : {"healthy", "blackhole", "delay_hedge"}) {
    arms.push_back(crossem::RunArm(name, *world, *sharded.value(), rounds));
  }
  for (crossem::Arm& a : arms) {
    a.recall_ratio =
        arms[0].recall_at_10 > 0.0 ? a.recall_at_10 / arms[0].recall_at_10
                                   : 0.0;
  }
  crossem::WriteJson(path, arms);
  return 0;
}
