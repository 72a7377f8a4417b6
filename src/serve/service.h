// MatchService — the online query engine of the serving layer.
//
// Requests (vertex id + top-k parameters) enter a bounded queue and a
// single worker thread drains them in micro-batches: it collects up to
// `max_batch` requests or waits at most `max_wait_micros` after the
// oldest queued request arrived, whichever comes first, then runs one
// CrossEm::EncodeVertices forward for every distinct uncached vertex in
// the batch. Batching is where the throughput comes from — the text
// tower's per-call overhead amortizes across the batch — and the wait
// deadline caps the latency cost of waiting for peers.
//
// The back end is fixed at construction. Over an EmbeddingIndex the
// worker searches inline. Over a ShardedIndex it hands each query to a
// ScatterGather (serve/sharded.h), which fans it out to the shards under
// retries, hedging and per-shard breakers and reports the coverage; the
// response is then partial (degraded) instead of failed when shards are.
//
// Admission control:
//   * queue full         -> Status::Unavailable at Submit time
//                           (backpressure: the caller sheds or retries)
//   * service shut down  -> Status::Unavailable at Submit time
//   * deadline expired   -> Status::DeadlineExceeded when dequeued or
//                           after encoding (never silently dropped)
//   * Shutdown()         -> stops admissions, drains every queued
//                           request, then joins the worker (graceful).
//
// Results carry matching probabilities from the Eq. 4 softmax applied
// over the kProbabilityCandidates (service.cc) nearest images retrieved
// for the query, or k if larger, at the model's temperature tau. Over a
// flat index with candidates >= index size this is exactly Eq. 4; over
// HNSW (or a trimmed candidate set) it is the standard
// retrieve-then-normalize approximation, identical policy for every
// back end so swapping the back end never changes probability
// semantics.
#ifndef CROSSEM_SERVE_SERVICE_H_
#define CROSSEM_SERVE_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/crossem.h"
#include "graph/graph.h"
#include "obs/request_trace.h"
#include "serve/cache.h"
#include "serve/index.h"
#include "serve/sharded.h"
#include "serve/stats.h"
#include "util/status.h"

namespace crossem {
namespace serve {

struct MatchServiceOptions {
  /// Max requests waiting in the queue; submits beyond this are
  /// rejected with Status::Unavailable (backpressure).
  int64_t max_queue = 256;
  /// Micro-batch cap: the worker encodes at most this many distinct
  /// vertices per EncodeVertices call.
  int64_t max_batch = 16;
  /// How long the worker may hold the oldest queued request to let a
  /// batch fill up. 0 = never wait (every drain takes what is queued).
  int64_t max_wait_micros = 2000;
  /// LRU embedding-cache capacity; <= 0 disables caching.
  int64_t cache_capacity = 4096;
  /// Optional embedding-cache byte cap; 0 = entries-only capacity.
  int64_t cache_max_bytes = 0;
  /// Storage format of cached embeddings (quantized entries pack 2-3.5x
  /// more vertices into the same bytes; dequantized on hit).
  quant::QuantFormat cache_format = quant::QuantFormat::kF32;
};

/// The embedding-cache configuration a MatchServiceOptions implies.
inline EmbeddingCacheOptions CacheOptionsFor(
    const MatchServiceOptions& options) {
  return EmbeddingCacheOptions{options.cache_capacity,
                               options.cache_max_bytes,
                               options.cache_format};
}

struct MatchRequest {
  graph::VertexId vertex = 0;
  /// Matches to return (top-k by similarity).
  int64_t k = 1;
  /// Drop matches whose Eq. 4 probability falls below this.
  float min_probability = 0.0f;
  /// Per-request deadline, microseconds from submit; 0 = none. A
  /// request still queued (or just encoded) past its deadline completes
  /// with Status::DeadlineExceeded.
  int64_t deadline_micros = 0;
  /// Request-scoped trace to record engine spans into (null = tracing
  /// off for this request; every engine hook is then one pointer test).
  std::shared_ptr<obs::RequestTrace> trace;
  /// Parent span for the engine's spans (the ingress-side span id).
  uint64_t parent_span_id = 0;
};

struct RankedMatch {
  int64_t image = 0;        // row index in the serving index
  std::string image_id;     // the index's external id for that row
  float similarity = 0.0f;  // cosine similarity
  float probability = 0.0f; // Eq. 4 softmax over the retrieved candidates
};

struct MatchResponse {
  std::vector<RankedMatch> matches;
  /// True when the vertex embedding came from the cache.
  bool cache_hit = false;
  /// Row-weighted fraction of the repository actually searched. Always
  /// 1.0 over a local index; the sharded back end lowers it when shards
  /// are skipped, down, or out of time — the query still succeeds.
  double coverage = 1.0;
  /// True iff coverage < 1.0 (the explicit partial-result flag).
  bool degraded = false;
};

class MatchService {
 public:
  /// Local back end: the worker searches `index` inline. `matcher` and
  /// `index` are borrowed and must outlive the service. The worker
  /// thread starts immediately.
  MatchService(const core::CrossEm* matcher, const EmbeddingIndex* index,
               MatchServiceOptions options);
  /// Sharded back end: the worker scatters each query across `index`'s
  /// shards through a ScatterGather, and responses carry its coverage.
  MatchService(const core::CrossEm* matcher, const ShardedIndex* index,
               MatchServiceOptions options, ResilienceOptions resilience);
  ~MatchService();  // implies Shutdown()

  MatchService(const MatchService&) = delete;
  MatchService& operator=(const MatchService&) = delete;

  /// Enqueue a request. The future is always eventually satisfied: with
  /// a response, or with the rejection/expiry Status. Rejections
  /// (queue full, shut down, invalid request) resolve immediately.
  std::future<Result<MatchResponse>> Submit(const MatchRequest& request);

  /// Convenience: Submit and block for the result.
  Result<MatchResponse> Match(const MatchRequest& request);

  /// Stop admitting, drain every queued request, join the worker (and
  /// the shard workers of a sharded back end). Idempotent.
  void Shutdown();

  ServiceStats Snapshot() const { return stats_.Snapshot(); }
  const EmbeddingCache& cache() const { return cache_; }
  /// Resilience counters of the sharded back end; empty over a local
  /// index.
  ResilienceStats ResilienceSnapshot() const {
    return scatter_ != nullptr ? scatter_->Snapshot() : ResilienceStats{};
  }
  /// Breaker state of one shard; the back end must be sharded.
  CircuitBreaker::State breaker_state(int64_t shard) const {
    return scatter_->breaker_state(shard);
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct Pending {
    MatchRequest request;
    std::promise<Result<MatchResponse>> promise;
    Clock::time_point submitted;
    Clock::time_point deadline;  // time_point::max() when none
  };

  MatchService(const core::CrossEm* matcher, const EmbeddingIndex* index,
               std::unique_ptr<ScatterGather> scatter,
               MatchServiceOptions options);

  void WorkerLoop();
  void ProcessBatch(std::vector<Pending> batch);

  const core::CrossEm* matcher_;
  // The back end: exactly one of these is set.
  const EmbeddingIndex* index_;
  std::unique_ptr<ScatterGather> scatter_;
  const MatchServiceOptions options_;
  const uint32_t fingerprint_;   // encoder fingerprint at construction
  const float temperature_;      // tau at construction

  EmbeddingCache cache_;
  StatsCollector stats_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool shutdown_ = false;
  bool joined_ = false;  // exactly one Shutdown call joins the worker

  std::thread worker_;
};

}  // namespace serve
}  // namespace crossem

#endif  // CROSSEM_SERVE_SERVICE_H_
