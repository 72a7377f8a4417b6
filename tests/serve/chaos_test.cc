// Chaos drills for the resilient sharded serving layer: fault-free
// bitwise identity with the single-index MatchService, graceful
// degradation (partial results, coverage, breaker) under blackholed /
// stuck / corrupt shards, hedging against slow shards, and breaker
// recovery once a fault clears. Fault schedules are deterministic
// (util/fault_injection serve_shard specs), so every drill is
// reproducible.
#include "serve/sharded.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "clip/clip.h"
#include "data/dataset.h"
#include "gtest/gtest.h"
#include "serve/index.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "text/tokenizer.h"
#include "util/fault_injection.h"
#include "util/parallel.h"
#include "util/status.h"

namespace crossem {
namespace serve {
namespace {

/// One small untuned model, a flat index over its test-image
/// embeddings, and the per-row true classes (for class-based recall) —
/// shared by every drill.
class ChaosFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::DatasetConfig dc = data::CubLikeConfig(0.4);
    ds_ = new data::CrossModalDataset(data::BuildDataset(dc));
    clip::ClipConfig cc;
    cc.vocab_size = ds_->vocab.size();
    cc.text_context = 32;
    cc.model_dim = 16;
    cc.text_layers = 1;
    cc.text_heads = 2;
    cc.image_layers = 1;
    cc.image_heads = 2;
    cc.patch_dim = ds_->world->config().patch_dim;
    cc.max_patches = 16;
    cc.embed_dim = 12;
    Rng rng(5);
    model_ = new clip::ClipModel(cc, &rng);
    tokenizer_ = new text::Tokenizer(&ds_->vocab, cc.text_context);

    core::CrossEmOptions options;
    options.prompt_mode = core::PromptMode::kHard;
    matcher_ = new core::CrossEm(model_, &ds_->graph, tokenizer_, options);

    const std::vector<int64_t> test_rows = ds_->TestImageIndices();
    Tensor images = ds_->StackImages(test_rows);
    Tensor embeddings = matcher_->EncodeImages(images);
    std::vector<std::string> ids;
    row_class_ = new std::vector<int64_t>();
    for (int64_t i = 0; i < embeddings.size(0); ++i) {
      ids.push_back("img" + std::to_string(i));
      row_class_->push_back(
          ds_->images[static_cast<size_t>(test_rows[i])].true_class);
    }
    index_ = new FlatIndex();
    ASSERT_TRUE(index_->Add(embeddings, ids).ok());
    index_->set_model_fingerprint(matcher_->EncoderFingerprint());
  }

  static void TearDownTestSuite() {
    delete index_;
    delete row_class_;
    delete matcher_;
    delete tokenizer_;
    delete model_;
    delete ds_;
  }

  void TearDown() override { fault::Clear(); }

  static graph::VertexId Vertex(size_t i) {
    return ds_->entities[i % ds_->entities.size()];
  }
  static int64_t NumClasses() {
    return static_cast<int64_t>(ds_->entities.size());
  }

  static std::unique_ptr<ShardedIndex> MakeShards(int64_t n,
                                                  const char* backend =
                                                      "flat") {
    ShardedIndexOptions so;
    so.num_shards = n;
    so.backend = backend;
    auto sharded = ShardedIndex::Partition(*index_, so);
    EXPECT_TRUE(sharded.ok()) << sharded.status().ToString();
    return sharded.MoveValue();
  }

  /// Class-based recall@10 over one query per entity class: the top 10
  /// must contain an image of the query's true class. Robust to losing
  /// a shard (class images spread across shards), unlike set overlap
  /// with the full-index top-10.
  static double ClassRecallAt10(
      const std::vector<Result<MatchResponse>>& results) {
    int64_t hit = 0;
    for (size_t c = 0; c < results.size(); ++c) {
      EXPECT_TRUE(results[c].ok()) << results[c].status().ToString();
      if (!results[c].ok()) continue;
      for (const RankedMatch& m : results[c].value().matches) {
        if ((*row_class_)[static_cast<size_t>(m.image)] ==
            static_cast<int64_t>(c)) {
          ++hit;
          break;
        }
      }
    }
    return results.empty()
               ? 0.0
               : static_cast<double>(hit) / static_cast<double>(results.size());
  }

  static data::CrossModalDataset* ds_;
  static clip::ClipModel* model_;
  static text::Tokenizer* tokenizer_;
  static core::CrossEm* matcher_;
  static FlatIndex* index_;
  static std::vector<int64_t>* row_class_;
};

data::CrossModalDataset* ChaosFixture::ds_ = nullptr;
clip::ClipModel* ChaosFixture::model_ = nullptr;
text::Tokenizer* ChaosFixture::tokenizer_ = nullptr;
core::CrossEm* ChaosFixture::matcher_ = nullptr;
FlatIndex* ChaosFixture::index_ = nullptr;
std::vector<int64_t>* ChaosFixture::row_class_ = nullptr;

EngineOptions QuickOptions() {
  EngineOptions o;
  o.base.max_wait_micros = 0;  // no batching for lone callers
  return o;
}

TEST_F(ChaosFixture, PartitionCoversEveryRowExactlyOnce) {
  auto sharded = MakeShards(4);
  ASSERT_EQ(sharded->num_shards(), 4);
  EXPECT_EQ(sharded->size(), index_->size());
  EXPECT_EQ(sharded->dim(), index_->dim());
  EXPECT_EQ(sharded->model_fingerprint(), index_->model_fingerprint());
  int64_t total = 0;
  for (int64_t s = 0; s < 4; ++s) {
    total += sharded->shard_size(s);
    EXPECT_GT(sharded->shard_size(s), 0) << "empty shard " << s;
  }
  EXPECT_EQ(total, index_->size());
}

/// The acceptance contract: with no faults armed, the sharded service's
/// responses are bitwise-identical to the single-index MatchService —
/// same rows, same similarities, same Eq. 4 probabilities — at 1 and 8
/// threads, for a 4-shard flat split and a 1-shard hnsw "split".
TEST_F(ChaosFixture, FaultFreeBitwiseIdenticalToSingleService) {
  auto flat4 = MakeShards(4, "flat");

  auto hnsw_source = std::make_unique<HnswIndex>();
  {
    const std::vector<int64_t> test_rows = ds_->TestImageIndices();
    Tensor images = ds_->StackImages(test_rows);
    Tensor embeddings = matcher_->EncodeImages(images);
    std::vector<std::string> ids;
    for (int64_t i = 0; i < embeddings.size(0); ++i) {
      ids.push_back("img" + std::to_string(i));
    }
    ASSERT_TRUE(hnsw_source->Add(embeddings, ids).ok());
    hnsw_source->set_model_fingerprint(matcher_->EncoderFingerprint());
  }
  ShardedIndexOptions h1;
  h1.num_shards = 1;
  h1.backend = "hnsw";
  auto hnsw1 = ShardedIndex::Partition(*hnsw_source, h1);
  ASSERT_TRUE(hnsw1.ok()) << hnsw1.status().ToString();

  const int original_threads = GetNumThreads();
  for (int threads : {1, 8}) {
    SetNumThreads(threads);
    struct Case {
      const EmbeddingIndex* single;
      const ShardedIndex* sharded;
      const char* name;
    };
    const Case cases[] = {{index_, flat4.get(), "flat-4"},
                          {hnsw_source.get(), hnsw1.value().get(), "hnsw-1"}};
    for (const Case& c : cases) {
      SCOPED_TRACE(std::string(c.name) + " @" + std::to_string(threads) +
                   " threads");
      MatchServiceOptions so;
      so.max_wait_micros = 0;
      MatchService single(matcher_, c.single, so);
      MatchService sharded(matcher_, c.sharded, so, ResilienceOptions{});
      for (int64_t q = 0; q < std::min<int64_t>(NumClasses(), 12); ++q) {
        MatchRequest request;
        request.vertex = Vertex(static_cast<size_t>(q));
        request.k = 10;
        auto a = single.Match(request);
        auto b = sharded.Match(request);
        ASSERT_TRUE(a.ok()) << a.status().ToString();
        ASSERT_TRUE(b.ok()) << b.status().ToString();
        EXPECT_EQ(b.value().coverage, 1.0);
        EXPECT_FALSE(b.value().degraded);
        ASSERT_EQ(a.value().matches.size(), b.value().matches.size());
        for (size_t i = 0; i < a.value().matches.size(); ++i) {
          EXPECT_EQ(a.value().matches[i].image, b.value().matches[i].image);
          EXPECT_EQ(a.value().matches[i].image_id,
                    b.value().matches[i].image_id);
          // Bitwise: == on floats, not near.
          EXPECT_EQ(a.value().matches[i].similarity,
                    b.value().matches[i].similarity);
          EXPECT_EQ(a.value().matches[i].probability,
                    b.value().matches[i].probability);
        }
      }
      sharded.Shutdown();
      single.Shutdown();
    }
  }
  SetNumThreads(original_threads);
}

/// The headline drill: 1 of 4 shards blackholed (every call dropped).
/// Queries must all succeed with partial coverage, class recall@10 must
/// hold >= 0.95 of the healthy value, and once the breaker opens the
/// steady-state latency must stay in the same regime as fault-free.
TEST_F(ChaosFixture, BlackholedShardDegradesGracefully) {
  auto sharded = MakeShards(4);
  EngineOptions o = QuickOptions();
  o.resilience.attempt_timeout_micros = 10000;
  o.resilience.max_attempts = 2;
  o.resilience.hedge_delay_micros = 3000;
  o.resilience.breaker_failure_threshold = 3;
  // Cooldown far beyond the drill so no half-open probe perturbs the
  // steady-state latency we are about to measure.
  o.resilience.breaker_cooldown_micros = 60 * 1000 * 1000;

  const int64_t queries = std::min<int64_t>(NumClasses(), 24);

  // Healthy pass: latencies + recall baseline (cache warms here; the
  // degraded pass below reuses it, keeping the comparison encode-free).
  std::vector<Result<MatchResponse>> healthy;
  std::vector<int64_t> healthy_us;
  {
    MatchService service(matcher_, sharded.get(), o.base, o.resilience);
    for (int64_t q = 0; q < queries; ++q) {
      MatchRequest request;
      request.vertex = Vertex(static_cast<size_t>(q));
      request.k = 10;
      const auto t0 = std::chrono::steady_clock::now();
      healthy.push_back(service.Match(request));
      healthy_us.push_back(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
      ASSERT_TRUE(healthy.back().ok());
      EXPECT_EQ(healthy.back().value().coverage, 1.0);
    }
    service.Shutdown();
  }
  const double healthy_recall = ClassRecallAt10(healthy);
  ASSERT_GT(healthy_recall, 0.0);

  // Blackhole shard 2: every call to it is dropped on the floor.
  fault::ShardFaultSpec spec;
  spec.mode = fault::ShardFaultMode::kDrop;
  spec.shard = 2;
  fault::ArmShardFault(spec);

  MatchService service(matcher_, sharded.get(), o.base, o.resilience);
  // Warmup until the breaker on shard 2 opens (bounded by the failure
  // threshold: each query burns max_attempts+hedge failed calls).
  for (int64_t q = 0; q < 16 && service.breaker_state(2) !=
                                    CircuitBreaker::State::kOpen;
       ++q) {
    MatchRequest request;
    request.vertex = Vertex(static_cast<size_t>(q));
    request.k = 10;
    auto r = service.Match(request);
    ASSERT_TRUE(r.ok()) << r.status().ToString();  // degraded, never failed
  }
  ASSERT_EQ(service.breaker_state(2), CircuitBreaker::State::kOpen);

  // Steady state: shard 2 short-circuited, no query errors, explicit
  // partial coverage.
  const double expected_coverage =
      1.0 - static_cast<double>(sharded->shard_size(2)) /
                static_cast<double>(sharded->size());
  std::vector<Result<MatchResponse>> degraded;
  std::vector<int64_t> degraded_us;
  for (int64_t q = 0; q < queries; ++q) {
    MatchRequest request;
    request.vertex = Vertex(static_cast<size_t>(q));
    request.k = 10;
    const auto t0 = std::chrono::steady_clock::now();
    degraded.push_back(service.Match(request));
    degraded_us.push_back(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    ASSERT_TRUE(degraded.back().ok())
        << degraded.back().status().ToString();
    EXPECT_TRUE(degraded.back().value().degraded);
    EXPECT_NEAR(degraded.back().value().coverage, expected_coverage, 1e-9);
  }

  // Recall floor: >= 0.95x the healthy ensemble.
  const double degraded_recall = ClassRecallAt10(degraded);
  EXPECT_GE(degraded_recall, 0.95 * healthy_recall)
      << "degraded " << degraded_recall << " healthy " << healthy_recall;

  // Latency: steady-state p99 within 2x fault-free (with an absolute
  // floor so scheduler noise on tiny CI boxes cannot flake the drill).
  std::sort(healthy_us.begin(), healthy_us.end());
  std::sort(degraded_us.begin(), degraded_us.end());
  const int64_t healthy_p99 = healthy_us[healthy_us.size() * 99 / 100];
  const int64_t degraded_p99 = degraded_us[degraded_us.size() * 99 / 100];
  EXPECT_LE(degraded_p99,
            std::max<int64_t>(2 * healthy_p99, 20000))
      << "degraded p99 " << degraded_p99 << "us vs healthy " << healthy_p99
      << "us";

  ResilienceStats rs = service.ResilienceSnapshot();
  EXPECT_GT(rs.shard_failures, 0);
  EXPECT_GE(rs.breaker_opens, 1);
  EXPECT_GT(rs.breaker_skips, 0);
  EXPECT_GT(rs.degraded_responses, 0);
  service.Shutdown();
}

/// Corrupt scores must be caught by response validation and treated as
/// shard failures — degraded coverage, never a wrong answer.
TEST_F(ChaosFixture, CorruptShardResponsesAreRejectedNotServed) {
  auto sharded = MakeShards(4);
  fault::ShardFaultSpec spec;
  spec.mode = fault::ShardFaultMode::kCorrupt;
  spec.shard = 1;
  fault::ArmShardFault(spec);

  EngineOptions o = QuickOptions();
  o.resilience.max_attempts = 2;
  o.resilience.breaker_cooldown_micros = 60 * 1000 * 1000;
  MatchService service(matcher_, sharded.get(), o.base, o.resilience);
  for (int64_t q = 0; q < 6; ++q) {
    MatchRequest request;
    request.vertex = Vertex(static_cast<size_t>(q));
    request.k = 10;
    auto r = service.Match(request);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r.value().degraded);
    EXPECT_LT(r.value().coverage, 1.0);
    for (const RankedMatch& m : r.value().matches) {
      // No corrupt magnitude ever reaches a caller.
      EXPECT_LE(std::abs(m.similarity), 1.0001f);
    }
  }
  ResilienceStats rs = service.ResilienceSnapshot();
  EXPECT_GT(rs.corrupt_rejected, 0);
  service.Shutdown();
}

/// A shard that answers slowly (but correctly) should be rescued by the
/// hedged second request: full coverage, hedge wins recorded.
TEST_F(ChaosFixture, HedgingRescuesSlowShard) {
  auto sharded = MakeShards(2);
  // Every 2nd call to shard 0 is delayed well past the hedge trigger.
  fault::ShardFaultSpec spec;
  spec.mode = fault::ShardFaultMode::kDelay;
  spec.delay_ms = 40;
  spec.shard = 0;
  spec.every = 2;
  fault::ArmShardFault(spec);

  EngineOptions o = QuickOptions();
  o.resilience.attempt_timeout_micros = 400000;  // delay must NOT time out
  o.resilience.hedge_delay_micros = 4000;
  o.resilience.hedge_min_samples = 1 << 30;  // pin the fixed hedge delay
  MatchService service(matcher_, sharded.get(), o.base, o.resilience);
  for (int64_t q = 0; q < 8; ++q) {
    MatchRequest request;
    request.vertex = Vertex(static_cast<size_t>(q));
    request.k = 5;
    const auto t0 = std::chrono::steady_clock::now();
    auto r = service.Match(request);
    const int64_t us = std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().coverage, 1.0);
    EXPECT_FALSE(r.value().degraded);
    // A hedge that wins keeps the query far below the 40ms injected
    // delay + attempt timeout worst case.
    EXPECT_LT(us, 300000);
  }
  ResilienceStats rs = service.ResilienceSnapshot();
  EXPECT_GT(rs.hedges, 0);
  EXPECT_GT(rs.hedge_wins, 0);
  service.Shutdown();
}

/// Stuck shard: both its workers end up held hostage; queries degrade
/// but never fail, and Shutdown() still completes (the stuck drill
/// releases on shutdown).
TEST_F(ChaosFixture, StuckShardDegradesAndShutdownCompletes) {
  auto sharded = MakeShards(4);
  fault::ShardFaultSpec spec;
  spec.mode = fault::ShardFaultMode::kStuck;
  spec.shard = 0;
  fault::ArmShardFault(spec);

  EngineOptions o = QuickOptions();
  o.resilience.attempt_timeout_micros = 8000;
  o.resilience.max_attempts = 2;
  o.resilience.hedge_delay_micros = 2000;
  o.resilience.breaker_cooldown_micros = 60 * 1000 * 1000;
  MatchService service(matcher_, sharded.get(), o.base, o.resilience);
  for (int64_t q = 0; q < 8; ++q) {
    MatchRequest request;
    request.vertex = Vertex(static_cast<size_t>(q));
    request.k = 5;
    auto r = service.Match(request);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  ResilienceStats rs = service.ResilienceSnapshot();
  EXPECT_GT(rs.shard_failures, 0);
  service.Shutdown();  // must not hang on the hostage workers
}

/// Breaker lifecycle: open under a sticky fault, then recover through
/// the half-open probe once the fault clears.
TEST_F(ChaosFixture, BreakerRecoversAfterFaultClears) {
  auto sharded = MakeShards(2);
  fault::ShardFaultSpec spec;
  spec.mode = fault::ShardFaultMode::kDrop;
  spec.shard = 1;
  fault::ArmShardFault(spec);

  EngineOptions o = QuickOptions();
  o.resilience.attempt_timeout_micros = 8000;
  o.resilience.max_attempts = 2;
  o.resilience.breaker_failure_threshold = 2;
  o.resilience.breaker_cooldown_micros = 30000;  // fast recovery drill
  MatchService service(matcher_, sharded.get(), o.base, o.resilience);

  for (int64_t q = 0; q < 12 && service.breaker_state(1) !=
                                    CircuitBreaker::State::kOpen;
       ++q) {
    MatchRequest request;
    request.vertex = Vertex(static_cast<size_t>(q));
    request.k = 5;
    ASSERT_TRUE(service.Match(request).ok());
  }
  ASSERT_EQ(service.breaker_state(1), CircuitBreaker::State::kOpen);

  fault::Clear();  // the shard heals
  std::this_thread::sleep_for(std::chrono::milliseconds(40));  // > cooldown

  // The next queries admit the half-open probe, which now succeeds and
  // closes the breaker; coverage returns to full.
  bool recovered = false;
  for (int64_t q = 0; q < 12 && !recovered; ++q) {
    MatchRequest request;
    request.vertex = Vertex(static_cast<size_t>(q));
    request.k = 5;
    auto r = service.Match(request);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    recovered = r.value().coverage == 1.0 &&
                service.breaker_state(1) == CircuitBreaker::State::kClosed;
    if (!recovered) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  EXPECT_TRUE(recovered);
  service.Shutdown();
}

/// Mid-flight request deadlines degrade coverage instead of failing the
/// query: a deadline far too short for a delayed shard still yields an
/// OK partial response once at least one shard answered.
TEST_F(ChaosFixture, RequestDeadlineYieldsPartialNotError) {
  auto sharded = MakeShards(4);
  fault::ShardFaultSpec spec;
  spec.mode = fault::ShardFaultMode::kDelay;
  spec.delay_ms = 60;
  spec.shard = 3;
  fault::ArmShardFault(spec);

  EngineOptions o = QuickOptions();
  o.resilience.hedging = false;  // let the delay bite
  o.resilience.max_attempts = 1;
  MatchService service(matcher_, sharded.get(), o.base, o.resilience);

  // Warm the embedding cache so the deadline budget goes to the gather.
  {
    MatchRequest warm;
    warm.vertex = Vertex(0);
    warm.k = 5;
    ASSERT_TRUE(service.Match(warm).ok());
  }
  MatchRequest request;
  request.vertex = Vertex(0);
  request.k = 5;
  request.deadline_micros = 25000;  // << the 60ms injected delay
  auto r = service.Match(request);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.value().degraded);
  EXPECT_LT(r.value().coverage, 1.0);
  EXPECT_GT(r.value().coverage, 0.0);
  service.Shutdown();
}

/// Environment-driven drill (the ctest chaos entries): runs only when
/// CROSSEM_FAULT_SPEC armed serve_shard faults from the environment,
/// and asserts the blanket invariant — whatever the schedule, queries
/// never error and responses stay structurally valid.
TEST_F(ChaosFixture, ChaosEnvDrillNeverFailsQueries) {
  if (std::getenv("CROSSEM_FAULT_SPEC") == nullptr) {
    GTEST_SKIP() << "CROSSEM_FAULT_SPEC not set";
  }
  auto sharded = MakeShards(4);
  EngineOptions o = QuickOptions();
  o.resilience.attempt_timeout_micros = 30000;
  o.resilience.max_attempts = 2;
  o.resilience.hedge_delay_micros = 5000;
  MatchService service(matcher_, sharded.get(), o.base, o.resilience);
  for (int64_t q = 0; q < 16; ++q) {
    MatchRequest request;
    request.vertex = Vertex(static_cast<size_t>(q));
    request.k = 10;
    auto r = service.Match(request);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_GE(r.value().coverage, 0.0);
    EXPECT_LE(r.value().coverage, 1.0);
    for (const RankedMatch& m : r.value().matches) {
      EXPECT_LE(std::abs(m.similarity), 1.0001f);
      EXPECT_GE(m.image, 0);
      EXPECT_LT(m.image, sharded->size());
    }
  }
  service.Shutdown();
}

}  // namespace
}  // namespace serve
}  // namespace crossem
