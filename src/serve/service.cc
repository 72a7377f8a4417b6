#include "serve/service.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "obs/trace.h"
#include "tensor/tensor.h"

namespace crossem {
namespace serve {

namespace {

/// Immediately-resolved future for admission-time rejections.
std::future<Result<MatchResponse>> RejectedFuture(Status status) {
  std::promise<Result<MatchResponse>> promise;
  std::future<Result<MatchResponse>> future = promise.get_future();
  promise.set_value(std::move(status));
  return future;
}

int64_t MicrosBetween(std::chrono::steady_clock::time_point from,
                      std::chrono::steady_clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::microseconds>(to - from)
      .count();
}

/// Nearest images retrieved per query for the probability softmax
/// (raised to the request's k; a back end returns at most its size).
constexpr int64_t kProbabilityCandidates = 64;

/// The scoring tail: Eq. 4 softmax at `temperature` over the retrieved
/// candidate list `found` (best first, global row ids), keeping the top
/// `k` above `min_probability`. Both back ends feed it, so a sharded
/// merge that reproduces `found` bitwise also reproduces the
/// probabilities bitwise.
void AppendRankedMatches(const std::vector<eval::ScoredId>& found,
                         const std::vector<std::string>& ids, int64_t k,
                         float min_probability, float temperature,
                         std::vector<RankedMatch>* out) {
  if (found.empty()) return;
  // Eq. 4 softmax at temperature tau over the retrieved candidate set
  // (max-subtracted for stability; found is score-descending, so the
  // max is the first element).
  const float inv_tau = 1.0f / temperature;
  const float top = found.front().score;
  double denom = 0.0;
  for (const eval::ScoredId& c : found) {
    denom += std::exp(static_cast<double>((c.score - top) * inv_tau));
  }
  const int64_t take = std::min<int64_t>(k, static_cast<int64_t>(found.size()));
  for (int64_t j = 0; j < take; ++j) {
    const float prob = static_cast<float>(
        std::exp(static_cast<double>((found[j].score - top) * inv_tau)) /
        denom);
    if (prob < min_probability) break;  // scores descend
    RankedMatch match;
    match.image = found[j].id;
    match.image_id = ids[found[j].id];
    match.similarity = found[j].score;
    match.probability = prob;
    out->push_back(std::move(match));
  }
}

}  // namespace

MatchService::MatchService(const core::CrossEm* matcher,
                           const EmbeddingIndex* index,
                           MatchServiceOptions options)
    : MatchService(matcher, index, nullptr, std::move(options)) {}

MatchService::MatchService(const core::CrossEm* matcher,
                           const ShardedIndex* index,
                           MatchServiceOptions options,
                           ResilienceOptions resilience)
    : MatchService(matcher, nullptr,
                   std::make_unique<ScatterGather>(index,
                                                   std::move(resilience)),
                   std::move(options)) {}

MatchService::MatchService(const core::CrossEm* matcher,
                           const EmbeddingIndex* index,
                           std::unique_ptr<ScatterGather> scatter,
                           MatchServiceOptions options)
    : matcher_(matcher),
      index_(index),
      scatter_(std::move(scatter)),
      options_(std::move(options)),
      fingerprint_(matcher->EncoderFingerprint()),
      temperature_(matcher->Temperature()),
      cache_(CacheOptionsFor(options_)) {
  worker_ = std::thread([this] { WorkerLoop(); });
}

MatchService::~MatchService() { Shutdown(); }

std::future<Result<MatchResponse>> MatchService::Submit(
    const MatchRequest& request) {
  if (request.k < 1) {
    return RejectedFuture(
        Status::InvalidArgument("MatchRequest.k must be >= 1"));
  }
  if (request.vertex < 0 ||
      request.vertex >= matcher_->graph().NumVertices()) {
    return RejectedFuture(Status::InvalidArgument(
        "MatchRequest.vertex " + std::to_string(request.vertex) +
        " out of range [0, " +
        std::to_string(matcher_->graph().NumVertices()) + ")"));
  }

  Pending pending;
  pending.request = request;
  pending.submitted = Clock::now();
  pending.deadline =
      request.deadline_micros > 0
          ? pending.submitted + std::chrono::microseconds(request.deadline_micros)
          : Clock::time_point::max();
  std::future<Result<MatchResponse>> future = pending.promise.get_future();

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      stats_.RecordRejectedShutdown();
      pending.promise.set_value(
          Status::Unavailable("MatchService is shut down"));
      return future;
    }
    if (static_cast<int64_t>(queue_.size()) >= options_.max_queue) {
      stats_.RecordRejectedQueueFull();
      // The rejection carries the observed depth and a drain-time hint
      // (p50 completion latency, floored at the batching wait) so
      // callers — including the sharded layer — can back off for a
      // meaningful interval instead of guessing. The hint never exceeds
      // the request's own deadline: advising a retry that would arrive
      // post-deadline is wasted work on both sides.
      int64_t retry_after_us = std::max<int64_t>(
          stats_.LatencyP50Us(), options_.max_wait_micros);
      if (request.deadline_micros > 0) {
        retry_after_us =
            std::min(retry_after_us, request.deadline_micros);
      }
      pending.promise.set_value(Status::Unavailable(
          "MatchService queue full (" + std::to_string(queue_.size()) +
          " of " + std::to_string(options_.max_queue) +
          " pending); retry after " + std::to_string(retry_after_us) +
          "us"));
      return future;
    }
    stats_.RecordReceived();
    queue_.push_back(std::move(pending));
  }
  cv_.notify_one();
  return future;
}

Result<MatchResponse> MatchService::Match(const MatchRequest& request) {
  return Submit(request).get();
}

void MatchService::Shutdown() {
  bool join_here = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    if (!joined_) {
      joined_ = true;
      join_here = true;
    }
  }
  cv_.notify_all();
  if (!join_here) return;
  worker_.join();
  if (scatter_ != nullptr) scatter_->Shutdown();
}

void MatchService::WorkerLoop() {
  obs::SetThreadName("serve-worker");
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [&] { return shutdown_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (shutdown_) return;  // drained
      continue;
    }

    // Adaptive batch fill: hold the oldest request up to max_wait_micros
    // so peers can join the batch — but never past the earliest queued
    // per-request deadline, and not at all once shutdown starts.
    if (!shutdown_ &&
        static_cast<int64_t>(queue_.size()) < options_.max_batch &&
        options_.max_wait_micros > 0) {
      Clock::time_point fill_deadline =
          queue_.front().submitted +
          std::chrono::microseconds(options_.max_wait_micros);
      for (const Pending& p : queue_) {
        fill_deadline = std::min(fill_deadline, p.deadline);
      }
      cv_.wait_until(lock, fill_deadline, [&] {
        return shutdown_ ||
               static_cast<int64_t>(queue_.size()) >= options_.max_batch;
      });
    }

    std::vector<Pending> batch;
    const int64_t take = std::min<int64_t>(
        static_cast<int64_t>(queue_.size()), options_.max_batch);
    batch.reserve(take);
    for (int64_t i = 0; i < take; ++i) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }

    lock.unlock();
    ProcessBatch(std::move(batch));
    lock.lock();
  }
}

void MatchService::ProcessBatch(std::vector<Pending> batch) {
  CROSSEM_TRACE_SPAN_V(span, "serve_batch");
  span.Arg("requests", static_cast<int64_t>(batch.size()));
  const int64_t batch_size = static_cast<int64_t>(batch.size());
  // Per-request engine span: covers queue wait + batch processing, from
  // submit to resolution, so the request tree shows where time went. A
  // sharded search pre-mints `span_id` so the gather can parent onto it
  // before the span itself is recorded; 0 mints one here.
  auto record_span = [batch_size](const Pending& p, const char* outcome,
                                  bool cache_hit, uint64_t span_id = 0) {
    if (p.request.trace == nullptr) return;
    const uint64_t start_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            p.submitted.time_since_epoch())
            .count());
    const uint64_t end_ns = obs::RequestNowNs();
    std::vector<obs::SpanArg> args(3);
    args[0].key = "outcome";
    args[0].type = obs::SpanArg::Type::kString;
    args[0].string_value = outcome;
    args[1].key = "batch";
    args[1].int_value = batch_size;
    args[2].key = "cache_hit";
    args[2].int_value = cache_hit ? 1 : 0;
    p.request.trace->Record("service",
                            span_id != 0 ? span_id : obs::MintSpanId(),
                            p.request.parent_span_id, start_ns,
                            end_ns > start_ns ? end_ns - start_ns : 0,
                            std::move(args));
  };
  // Expire requests that aged out while queued.
  const Clock::time_point dequeued = Clock::now();
  std::vector<Pending> live;
  live.reserve(batch.size());
  for (Pending& p : batch) {
    if (p.deadline <= dequeued) {
      stats_.RecordExpired();
      record_span(p, "expired_in_queue", false);
      p.promise.set_value(
          Status::DeadlineExceeded("request expired after " +
                                   std::to_string(MicrosBetween(
                                       p.submitted, dequeued)) +
                                   "us in queue"));
    } else {
      live.push_back(std::move(p));
    }
  }
  if (live.empty()) return;

  // Resolve embeddings: cache first, then one EncodeVertices forward
  // over the distinct uncached vertices of the batch.
  std::vector<std::vector<float>> embeddings(live.size());
  std::vector<bool> cached(live.size(), false);
  std::vector<graph::VertexId> to_encode;
  std::unordered_map<graph::VertexId, int64_t> encode_row;
  int64_t hits = 0;
  int64_t misses = 0;
  for (size_t i = 0; i < live.size(); ++i) {
    const graph::VertexId v = live[i].request.vertex;
    if (cache_.Lookup(v, fingerprint_, &embeddings[i])) {
      cached[i] = true;
      ++hits;
    } else {
      ++misses;
      if (encode_row.find(v) == encode_row.end()) {
        encode_row.emplace(v, static_cast<int64_t>(to_encode.size()));
        to_encode.push_back(v);
      }
    }
  }
  stats_.RecordBatch(static_cast<int64_t>(live.size()), hits, misses);

  const std::vector<std::string>& ids =
      scatter_ != nullptr ? scatter_->index().ids() : index_->ids();
  if (!to_encode.empty()) {
    NoGradGuard guard;
    Tensor encoded = matcher_->EncodeVertices(to_encode);  // [n, dim]
    const int64_t dim = encoded.size(1);
    const int64_t index_dim =
        scatter_ != nullptr ? scatter_->index().dim() : index_->dim();
    if (!ids.empty() && dim != index_dim) {
      Status mismatch = Status::Internal(
          "encoder dim " + std::to_string(dim) + " != index dim " +
          std::to_string(index_dim) +
          " (index built from a different model?)");
      for (Pending& p : live) {
        record_span(p, "dim_mismatch", false);
        p.promise.set_value(mismatch);
      }
      return;
    }
    const float* data = encoded.data();
    for (size_t i = 0; i < live.size(); ++i) {
      if (cached[i]) continue;
      const int64_t row = encode_row.at(live[i].request.vertex);
      embeddings[i].assign(data + row * dim, data + (row + 1) * dim);
      cache_.Insert(live[i].request.vertex, fingerprint_, embeddings[i]);
    }
  }

  // Search + probabilities + respond.
  for (size_t i = 0; i < live.size(); ++i) {
    Pending& p = live[i];
    const Clock::time_point now = Clock::now();
    if (p.deadline <= now) {
      stats_.RecordExpired();
      record_span(p, "expired_in_batch", cached[i]);
      p.promise.set_value(Status::DeadlineExceeded(
          "request expired during batch processing"));
      continue;
    }

    const int64_t candidates =
        std::max(p.request.k, kProbabilityCandidates);
    MatchResponse response;
    response.cache_hit = cached[i];
    const uint64_t span_id =
        p.request.trace != nullptr ? obs::MintSpanId() : 0;
    std::vector<eval::ScoredId> found;
    if (scatter_ == nullptr) {
      // The remaining budget rides into the scan so a nearly-expired
      // query early-exits instead of burning the full repository.
      found = index_->Search(embeddings[i].data(), candidates, p.deadline);
    } else {
      ScatterGather::Gathered gathered =
          scatter_->Search(std::move(embeddings[i]), candidates, p.deadline,
                           p.request.trace, span_id);
      found = std::move(gathered.found);
      response.coverage = gathered.coverage;
      response.degraded = gathered.coverage < 1.0;
    }
    AppendRankedMatches(found, ids, p.request.k, p.request.min_probability,
                        temperature_, &response.matches);
    stats_.RecordCompleted(MicrosBetween(p.submitted, Clock::now()));
    record_span(p, response.degraded ? "degraded" : "ok", cached[i],
                span_id);
    p.promise.set_value(std::move(response));
  }
}

}  // namespace serve
}  // namespace crossem
