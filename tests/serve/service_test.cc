// MatchService behavior on a real (small, untuned) CrossEm: answer
// correctness against the offline matcher, micro-batching under
// concurrent clients, queue-full backpressure, per-request deadlines,
// cache reuse, and graceful shutdown drain. Every front-half case runs
// over both back ends: a local flat index and a 2-shard flat
// ShardedIndex. The ctest TSan re-run exercises the same suite with an
// 8-thread pool.
#include "serve/service.h"

#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "clip/clip.h"
#include "data/dataset.h"
#include "gtest/gtest.h"
#include "serve/index.h"
#include "serve/sharded.h"
#include "text/tokenizer.h"
#include "util/status.h"

namespace crossem {
namespace serve {
namespace {

enum class Backend { kLocal, kSharded };

/// One small untuned model + flat index over its image embeddings (and
/// a 2-shard split of it), shared by every test (encoding is the slow
/// part). The parameter picks the back end MakeService serves through.
class MatchServiceFixture : public ::testing::TestWithParam<Backend> {
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

    Tensor images = ds_->StackImages(ds_->TestImageIndices());
    Tensor embeddings = matcher_->EncodeImages(images);
    std::vector<std::string> ids;
    for (int64_t i = 0; i < embeddings.size(0); ++i) {
      ids.push_back("img" + std::to_string(i));
    }
    index_ = new FlatIndex();
    ASSERT_TRUE(index_->Add(embeddings, ids).ok());
    index_->set_model_fingerprint(matcher_->EncoderFingerprint());
    ShardedIndexOptions two;
    two.num_shards = 2;
    auto sharded = ShardedIndex::Partition(*index_, two);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    sharded_ = sharded.MoveValue().release();
  }

  static void TearDownTestSuite() {
    delete sharded_;
    delete index_;
    delete matcher_;
    delete tokenizer_;
    delete model_;
    delete ds_;
  }

  static graph::VertexId Vertex(size_t i) {
    return ds_->entities[i % ds_->entities.size()];
  }

  MatchService MakeService(const MatchServiceOptions& so) const {
    if (GetParam() == Backend::kSharded) {
      return MatchService(matcher_, sharded_, so, ResilienceOptions{});
    }
    return MatchService(matcher_, index_, so);
  }

  static data::CrossModalDataset* ds_;
  static clip::ClipModel* model_;
  static text::Tokenizer* tokenizer_;
  static core::CrossEm* matcher_;
  static FlatIndex* index_;
  static ShardedIndex* sharded_;
};

data::CrossModalDataset* MatchServiceFixture::ds_ = nullptr;
clip::ClipModel* MatchServiceFixture::model_ = nullptr;
text::Tokenizer* MatchServiceFixture::tokenizer_ = nullptr;
core::CrossEm* MatchServiceFixture::matcher_ = nullptr;
FlatIndex* MatchServiceFixture::index_ = nullptr;
ShardedIndex* MatchServiceFixture::sharded_ = nullptr;

TEST_P(MatchServiceFixture, AnswersMatchOfflineRanking) {
  MatchServiceOptions so;
  so.max_wait_micros = 0;  // no batching needed for a lone caller
  MatchService service = MakeService(so);

  MatchRequest request;
  request.vertex = Vertex(0);
  request.k = 5;
  auto result = service.Match(request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const MatchResponse& response = result.value();
  ASSERT_EQ(response.matches.size(), 5u);

  // Must agree with a direct index search over the same embedding.
  Tensor emb = matcher_->EncodeVertices({request.vertex});
  auto direct = index_->Search(emb.data(), 5);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(response.matches[i].image, direct[i].id);
    EXPECT_EQ(response.matches[i].similarity, direct[i].score);
    EXPECT_EQ(response.matches[i].image_id,
              index_->ids()[direct[i].id]);
  }
  // Probabilities: a softmax — positive, descending, summing under 1.
  float sum = 0.0f;
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_GT(response.matches[i].probability, 0.0f);
    if (i > 0) {
      EXPECT_LE(response.matches[i].probability,
                response.matches[i - 1].probability);
    }
    sum += response.matches[i].probability;
  }
  EXPECT_LE(sum, 1.0f + 1e-4f);
  service.Shutdown();
  EXPECT_EQ(service.Snapshot().completed, 1);
}

TEST_P(MatchServiceFixture, MinProbabilityFiltersTail) {
  MatchServiceOptions so;
  so.max_wait_micros = 0;
  MatchService service = MakeService(so);

  MatchRequest request;
  request.vertex = Vertex(1);
  request.k = static_cast<int64_t>(index_->size());
  auto unfiltered = service.Match(request);
  ASSERT_TRUE(unfiltered.ok());
  ASSERT_GT(unfiltered.value().matches.size(), 1u);
  // Threshold just above the weakest returned probability: at least one
  // match must drop, the strongest must survive.
  const auto& all = unfiltered.value().matches;
  request.min_probability = all.back().probability * 1.0001f;
  auto filtered = service.Match(request);
  ASSERT_TRUE(filtered.ok());
  EXPECT_LT(filtered.value().matches.size(), all.size());
  ASSERT_FALSE(filtered.value().matches.empty());
  EXPECT_EQ(filtered.value().matches.front().image, all.front().image);
}

TEST_P(MatchServiceFixture, ConcurrentClientsAllComplete) {
  MatchServiceOptions so;
  so.max_batch = 8;
  so.max_wait_micros = 3000;
  MatchService service = MakeService(so);

  constexpr int kClients = 8;
  constexpr int kPerClient = 6;
  std::vector<std::thread> clients;
  std::vector<Status> failures;
  std::mutex mu;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kPerClient; ++r) {
        MatchRequest request;
        request.vertex = Vertex(static_cast<size_t>(c + r));
        request.k = 3;
        auto result = service.Match(request);
        if (!result.ok() || result.value().matches.size() != 3u) {
          std::lock_guard<std::mutex> lock(mu);
          failures.push_back(result.ok() ? Status::Internal("wrong k")
                                         : result.status());
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  service.Shutdown();

  for (const Status& st : failures) ADD_FAILURE() << st.ToString();
  ServiceStats stats = service.Snapshot();
  EXPECT_EQ(stats.received, kClients * kPerClient);
  EXPECT_EQ(stats.completed, kClients * kPerClient);
  EXPECT_EQ(stats.rejected_queue_full, 0);
  EXPECT_EQ(stats.expired_deadline, 0);
  // Concurrency + the fill window must have produced real batches.
  EXPECT_LT(stats.batches, stats.completed);
  EXPECT_GT(stats.batch_size_mean, 1.0);
  // Only |entities| distinct vertices exist, so the cache must have hit.
  EXPECT_GT(stats.cache_hits, 0);
}

TEST_P(MatchServiceFixture, QueueFullRejectsWithUnavailable) {
  MatchServiceOptions so;
  so.max_queue = 2;
  so.max_batch = 64;             // never reached
  so.max_wait_micros = 300000;   // worker holds the batch open 300ms
  MatchService service = MakeService(so);

  MatchRequest request;
  request.vertex = Vertex(0);
  // While the worker sits in its fill window, the queue caps at 2:
  // every submit beyond that must bounce immediately.
  std::vector<std::future<Result<MatchResponse>>> futures;
  for (int i = 0; i < 6; ++i) futures.push_back(service.Submit(request));
  int rejected = 0;
  for (auto& f : futures) {
    auto result = f.get();
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kUnavailable)
          << result.status().ToString();
      // The rejection is actionable: it names the queue depth and a
      // retry-after hint so clients can back off intelligently.
      EXPECT_NE(result.status().message().find("queue full"),
                std::string::npos)
          << result.status().ToString();
      EXPECT_NE(result.status().message().find("of 2 pending"),
                std::string::npos)
          << result.status().ToString();
      EXPECT_NE(result.status().message().find("retry after"),
                std::string::npos)
          << result.status().ToString();
      ++rejected;
    }
  }
  EXPECT_GE(rejected, 3);  // at most 2 queued + 1 already claimed
  service.Shutdown();
  ServiceStats stats = service.Snapshot();
  EXPECT_EQ(stats.rejected_queue_full, rejected);
  EXPECT_EQ(stats.completed + stats.rejected_queue_full, 6);
}

TEST_P(MatchServiceFixture, QueueFullRetryHintIsClampedToDeadline) {
  MatchServiceOptions so;
  so.max_queue = 2;
  so.max_batch = 64;
  so.max_wait_micros = 300000;  // natural drain hint: 300ms
  MatchService service = MakeService(so);

  MatchRequest request;
  request.vertex = Vertex(0);
  request.deadline_micros = 5000;  // but the client only has 5ms left
  std::vector<std::future<Result<MatchResponse>>> futures;
  for (int i = 0; i < 6; ++i) futures.push_back(service.Submit(request));
  int rejected = 0;
  for (auto& f : futures) {
    auto result = f.get();
    if (result.ok() ||
        result.status().code() != StatusCode::kUnavailable) {
      continue;  // completed, or expired while queued — not this test
    }
    // A retry hint past the request's own deadline is wasted work on
    // both sides: the 300ms drain estimate must shrink to the 5ms
    // budget.
    EXPECT_NE(result.status().message().find("retry after 5000us"),
              std::string::npos)
        << result.status().ToString();
    ++rejected;
  }
  EXPECT_GE(rejected, 3);
  service.Shutdown();
}

TEST_P(MatchServiceFixture, DeadlineExpiryIsReported) {
  MatchServiceOptions so;
  so.max_wait_micros = 50000;  // plenty of time for 1us deadlines to age out
  MatchService service = MakeService(so);

  MatchRequest request;
  request.vertex = Vertex(2);
  request.deadline_micros = 1;
  auto result = service.Match(request);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
      << result.status().ToString();
  service.Shutdown();
  EXPECT_EQ(service.Snapshot().expired_deadline, 1);
}

TEST_P(MatchServiceFixture, ShutdownDrainsQueuedRequests) {
  MatchServiceOptions so;
  so.max_batch = 4;
  so.max_wait_micros = 500000;  // queue builds up while the worker waits
  MatchService service = MakeService(so);

  std::vector<std::future<Result<MatchResponse>>> futures;
  for (int i = 0; i < 10; ++i) {
    MatchRequest request;
    request.vertex = Vertex(static_cast<size_t>(i));
    request.k = 2;
    futures.push_back(service.Submit(request));
  }
  // Graceful drain: every admitted request completes, none are dropped.
  service.Shutdown();
  for (auto& f : futures) {
    auto result = f.get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result.value().matches.size(), 2u);
  }
  ServiceStats stats = service.Snapshot();
  EXPECT_EQ(stats.received, 10);
  EXPECT_EQ(stats.completed, 10);
}

TEST_P(MatchServiceFixture, SubmitAfterShutdownIsRejected) {
  MatchServiceOptions so;
  MatchService service = MakeService(so);
  service.Shutdown();

  MatchRequest request;
  request.vertex = Vertex(0);
  auto result = service.Submit(request).get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(service.Snapshot().rejected_shutdown, 1);
}

TEST_P(MatchServiceFixture, InvalidRequestsRejectedUpFront) {
  MatchServiceOptions so;
  MatchService service = MakeService(so);

  MatchRequest bad_k;
  bad_k.vertex = Vertex(0);
  bad_k.k = 0;
  EXPECT_EQ(service.Submit(bad_k).get().status().code(),
            StatusCode::kInvalidArgument);

  MatchRequest bad_vertex;
  bad_vertex.vertex = ds_->graph.NumVertices() + 100;
  EXPECT_EQ(service.Submit(bad_vertex).get().status().code(),
            StatusCode::kInvalidArgument);
  service.Shutdown();
}

/// The HNSW case builds its own local index, so it runs once.
class HnswServiceFixture : public MatchServiceFixture {};

TEST_F(HnswServiceFixture, CacheHitOnRepeatAndHnswBackendInterchangeable) {
  // Same service contract over the ANN backend.
  Tensor images = ds_->StackImages(ds_->TestImageIndices());
  Tensor embeddings = matcher_->EncodeImages(images);
  HnswIndex hnsw;
  std::vector<std::string> ids;
  for (int64_t i = 0; i < embeddings.size(0); ++i) {
    ids.push_back("img" + std::to_string(i));
  }
  ASSERT_TRUE(hnsw.Add(embeddings, ids).ok());

  MatchServiceOptions so;
  so.max_wait_micros = 0;
  MatchService service(matcher_, &hnsw, so);

  MatchRequest request;
  request.vertex = Vertex(3);
  request.k = 2;
  auto first = service.Match(request);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.value().cache_hit);
  auto second = service.Match(request);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().cache_hit);
  ASSERT_EQ(first.value().matches.size(), second.value().matches.size());
  for (size_t i = 0; i < first.value().matches.size(); ++i) {
    EXPECT_EQ(first.value().matches[i].image, second.value().matches[i].image);
    EXPECT_EQ(first.value().matches[i].probability,
              second.value().matches[i].probability);
  }
  service.Shutdown();
  EXPECT_EQ(service.Snapshot().cache_hits, 1);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, MatchServiceFixture,
    ::testing::Values(Backend::kLocal, Backend::kSharded),
    [](const ::testing::TestParamInfo<Backend>& info) {
      return info.param == Backend::kLocal ? "LocalFlat" : "ShardedFlat2";
    });

}  // namespace
}  // namespace serve
}  // namespace crossem
