// SnapshotManager hot-swap protocol: versioning, the encoder-
// fingerprint handshake (in-process and through CEMCKPT2 files), lease
// semantics around the empty/shut-down states, and the rollout
// invariant — zero dropped queries while swaps land under concurrent
// load. The ctest TSan re-run exercises the same drill with the race
// detector watching the RCU seam.
#include "serve/snapshot.h"

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "clip/clip.h"
#include "data/dataset.h"
#include "gtest/gtest.h"
#include "serve/index.h"
#include "text/tokenizer.h"
#include "util/status.h"

namespace crossem {
namespace serve {
namespace {

/// Same small-world fixture as tests/serve/service_test.cc: one
/// untuned model + its image embeddings, encoded once per suite.
class SnapshotFixture : public ::testing::Test {
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
    embeddings_ = new Tensor(
        matcher_->EncodeImages(ds_->StackImages(ds_->TestImageIndices())));
  }

  static void TearDownTestSuite() {
    delete embeddings_;
    delete matcher_;
    delete tokenizer_;
    delete model_;
    delete ds_;
  }

  /// A fresh index over the fixture embeddings, correctly
  /// fingerprinted unless the test wants a mismatch.
  static std::unique_ptr<EmbeddingIndex> MakeIndex(uint32_t fingerprint) {
    std::vector<std::string> ids;
    for (int64_t i = 0; i < embeddings_->size(0); ++i) {
      ids.push_back("img" + std::to_string(i));
    }
    auto index = std::make_unique<FlatIndex>();
    EXPECT_TRUE(index->Add(*embeddings_, ids).ok());
    index->set_model_fingerprint(fingerprint);
    return index;
  }

  static std::unique_ptr<EmbeddingIndex> MakeGoodIndex() {
    return MakeIndex(matcher_->EncoderFingerprint());
  }

  static graph::VertexId Vertex(size_t i) {
    return ds_->entities[i % ds_->entities.size()];
  }

  static EngineOptions FastOptions(int64_t shards) {
    EngineOptions eo;
    eo.shards = shards;
    eo.base.max_wait_micros = 200;  // low-latency batching for tests
    return eo;
  }

  static data::CrossModalDataset* ds_;
  static clip::ClipModel* model_;
  static text::Tokenizer* tokenizer_;
  static core::CrossEm* matcher_;
  static Tensor* embeddings_;
};

data::CrossModalDataset* SnapshotFixture::ds_ = nullptr;
clip::ClipModel* SnapshotFixture::model_ = nullptr;
text::Tokenizer* SnapshotFixture::tokenizer_ = nullptr;
core::CrossEm* SnapshotFixture::matcher_ = nullptr;
Tensor* SnapshotFixture::embeddings_ = nullptr;

TEST_F(SnapshotFixture, EmptyManagerHandsOutNoLease) {
  SnapshotManager manager(matcher_, FastOptions(1));
  EXPECT_EQ(manager.version(), 0);
  EXPECT_EQ(manager.swaps(), 0);
  SnapshotLease lease = manager.Acquire();
  EXPECT_FALSE(lease);  // callers answer 503
  manager.Shutdown();
}

TEST_F(SnapshotFixture, SwapServesAndVersions) {
  SnapshotManager manager(matcher_, FastOptions(1));
  ASSERT_TRUE(manager.SwapIndex(MakeGoodIndex(), "boot").ok());
  EXPECT_EQ(manager.version(), 1);
  EXPECT_EQ(manager.swaps(), 1);

  SnapshotLease lease = manager.Acquire();
  ASSERT_TRUE(lease);
  EXPECT_EQ(lease->version(), 1);
  EXPECT_EQ(lease->source(), "boot");
  EXPECT_EQ(lease->rows(), embeddings_->size(0));
  EXPECT_EQ(lease->fingerprint(), matcher_->EncoderFingerprint());
  EXPECT_FALSE(lease->sharded());

  MatchRequest request;
  request.vertex = Vertex(0);
  request.k = 3;
  auto result = lease->Match(request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().matches.size(), 3u);
  lease.Reset();
  manager.Shutdown();
}

TEST_F(SnapshotFixture, ShardedEngineBehindTheSameSurface) {
  SnapshotManager manager(matcher_, FastOptions(2));
  ASSERT_TRUE(manager.SwapIndex(MakeGoodIndex(), "boot").ok());
  SnapshotLease lease = manager.Acquire();
  ASSERT_TRUE(lease);
  EXPECT_TRUE(lease->sharded());
  EXPECT_EQ(lease->shards(), 2);
  MatchRequest request;
  request.vertex = Vertex(1);
  request.k = 5;
  auto result = lease->Match(request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().coverage, 1.0);
  EXPECT_FALSE(result.value().degraded);
  lease.Reset();
  manager.Shutdown();
}

TEST_F(SnapshotFixture, FingerprintMismatchIsRejectedAndCurrentKeepsServing) {
  SnapshotManager manager(matcher_, FastOptions(1));
  ASSERT_TRUE(manager.SwapIndex(MakeGoodIndex(), "v1").ok());

  Status st = manager.SwapIndex(
      MakeIndex(matcher_->EncoderFingerprint() + 1), "retuned");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();

  // The failed rollout left the live snapshot untouched.
  EXPECT_EQ(manager.version(), 1);
  EXPECT_EQ(manager.swaps(), 1);
  SnapshotLease lease = manager.Acquire();
  ASSERT_TRUE(lease);
  EXPECT_EQ(lease->source(), "v1");
  lease.Reset();
  manager.Shutdown();
}

TEST_F(SnapshotFixture, LoadAndSwapRunsTheFileHandshake) {
  const std::string good = ::testing::TempDir() + "snapshot_good.cemckpt";
  const std::string bad = ::testing::TempDir() + "snapshot_bad.cemckpt";
  ASSERT_TRUE(MakeGoodIndex()->Save(good).ok());
  ASSERT_TRUE(
      MakeIndex(matcher_->EncoderFingerprint() ^ 0xdeadbeef)->Save(bad).ok());

  SnapshotManager manager(matcher_, FastOptions(1));
  ASSERT_TRUE(manager.LoadAndSwap(good).ok());
  EXPECT_EQ(manager.version(), 1);

  // A file built by a different model is refused pre-swap.
  Status st = manager.LoadAndSwap(bad);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("fingerprint"), std::string::npos)
      << st.ToString();
  EXPECT_EQ(manager.version(), 1);

  // Missing file: same no-op guarantee.
  EXPECT_FALSE(manager.LoadAndSwap(good + ".does-not-exist").ok());
  EXPECT_EQ(manager.version(), 1);

  SnapshotLease lease = manager.Acquire();
  ASSERT_TRUE(lease);
  EXPECT_EQ(lease->source(), good);
  lease.Reset();
  manager.Shutdown();
  std::remove(good.c_str());
  std::remove(bad.c_str());
}

// The rollout invariant: swaps landing mid-load never drop a query.
// Client threads hammer Match() through leases while the main thread
// rolls out new snapshot versions; every single query must succeed.
TEST_F(SnapshotFixture, HotSwapUnderLoadDropsNothing) {
  SnapshotManager manager(matcher_, FastOptions(1));
  ASSERT_TRUE(manager.SwapIndex(MakeGoodIndex(), "v1").ok());

  std::atomic<bool> stop{false};
  std::atomic<int64_t> queries{0};
  std::atomic<int64_t> failures{0};
  std::atomic<int64_t> max_version_seen{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&, t]() {
      int i = t;
      while (!stop.load(std::memory_order_relaxed)) {
        SnapshotLease lease = manager.Acquire();
        if (!lease) {
          // Acquire is only ever empty before the first swap or after
          // Shutdown — neither happens during this drill.
          failures.fetch_add(1);
          continue;
        }
        int64_t v = lease->version();
        int64_t prev = max_version_seen.load(std::memory_order_relaxed);
        while (v > prev &&
               !max_version_seen.compare_exchange_weak(prev, v)) {
        }
        MatchRequest request;
        request.vertex = Vertex(i++);
        request.k = 3;
        auto result = lease->Match(request);
        queries.fetch_add(1);
        if (!result.ok()) failures.fetch_add(1);
      }
    });
  }

  // Roll out three new versions while the clients run.
  const int kSwaps = 3;
  for (int s = 0; s < kSwaps; ++s) {
    std::string source = "v";  // two-step append: gcc-12 -Wrestrict FP
    source += std::to_string(s + 2);
    ASSERT_TRUE(manager.SwapIndex(MakeGoodIndex(), std::move(source)).ok());
  }
  // Let the clients run a little on the final version.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  stop.store(true);
  for (auto& c : clients) c.join();

  EXPECT_GT(queries.load(), 0);
  EXPECT_EQ(failures.load(), 0);  // zero dropped queries across swaps
  EXPECT_EQ(manager.version(), 1 + kSwaps);
  EXPECT_EQ(max_version_seen.load(), manager.version());
  manager.Shutdown();
}

// Concurrent rollouts (two POST /admin/snapshot requests on different
// HTTP workers) must each publish a version of their own.
TEST_F(SnapshotFixture, ConcurrentSwapsGetDistinctVersions) {
  for (int64_t shards : {1, 4}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    SnapshotManager manager(matcher_, FastOptions(shards));
    std::vector<std::thread> rollers;
    for (int t = 0; t < 4; ++t) {
      rollers.emplace_back([&manager]() {
        for (int s = 0; s < 10; ++s) {
          EXPECT_TRUE(manager.SwapIndex(MakeGoodIndex(), "rollout").ok());
        }
      });
    }
    for (std::thread& t : rollers) t.join();
    EXPECT_EQ(manager.swaps(), 40);
    EXPECT_EQ(manager.version(), manager.swaps());
    manager.Shutdown();
  }
}

TEST_F(SnapshotFixture, ShutdownStopsLeasesAndIsIdempotent) {
  SnapshotManager manager(matcher_, FastOptions(1));
  ASSERT_TRUE(manager.SwapIndex(MakeGoodIndex(), "v1").ok());
  manager.Shutdown();
  SnapshotLease lease = manager.Acquire();
  EXPECT_FALSE(lease);
  // A swap after shutdown is refused; shutdown again is a no-op.
  EXPECT_FALSE(manager.SwapIndex(MakeGoodIndex(), "late").ok());
  manager.Shutdown();
}

}  // namespace
}  // namespace serve
}  // namespace crossem
