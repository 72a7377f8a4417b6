// Resilient sharded serving: scatter-gather over hash-partitioned index
// shards with a per-shard resilience envelope.
//
// A ShardedIndex splits one embedding repository into N independent
// backends (FlatIndex or HnswIndex each): global row r lands on shard
// SplitMix64(kShardHashSeed ^ r) % N, and every shard remembers its
// rows' global ids in ascending order. Because rows are copied verbatim
// (AddPreNormalized — no re-normalization) and per-shard results map
// back to ascending global ids, merging per-shard flat top-k lists with
// eval::MergeTopK reproduces the unsharded flat scan bit for bit: the
// tie order (score desc, id asc) is the global one.
//
// ScatterGather is the back end a MatchService searches through when it
// serves a ShardedIndex (the front half — queue, micro-batching, the
// embedding cache, the Eq. 4 tail — is MatchService's own). It fans each
// query out to every shard's workers and wraps each shard call in:
//
//   * deadline propagation — every attempt carries
//     min(now + attempt_timeout, request deadline); shard searches
//     early-exit once it passes and late results are never delivered;
//   * bounded retries — up to max_attempts per shard, exponential
//     backoff capped at 20 ms plus deterministic SplitMix64 jitter keyed
//     (a fixed seed, query seq, shard, attempt);
//   * hedging — a duplicate request to the same shard once the primary
//     outlives the shard's observed p95 latency (a fixed delay until
//     hedge_min_samples observations exist); first response wins;
//   * a circuit breaker per shard — closed -> open after
//     breaker_failure_threshold consecutive failures, half-open after
//     breaker_cooldown with a single probe; open shards are skipped
//     without burning the request's time budget.
//
// Shard responses are validated before they count (scores finite,
// |score| bounded, order sorted, ids in range) so a corrupt-scores
// fault is a shard failure, not a wrong answer. Failed or skipped
// shards degrade the response instead of failing it: the gather returns
// the coverage (row-weighted fraction of the repository actually
// searched) with whatever the healthy shards returned. Every retry /
// hedge / breaker / coverage event lands in
// obs::MetricsRegistry::Default() under crossem_shard_* /
// crossem_serve_coverage_percent.
#ifndef CROSSEM_SERVE_SHARDED_H_
#define CROSSEM_SERVE_SHARDED_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "serve/index.h"
#include "util/status.h"

namespace crossem {
namespace serve {

// -- ShardedIndex ------------------------------------------------------------

struct ShardedIndexOptions {
  int64_t num_shards = 4;
  /// Backend of every shard: "flat" or "hnsw" (default HnswOptions).
  std::string backend = "flat";
};

/// One embedding repository hash-partitioned into independent shards.
class ShardedIndex {
 public:
  /// Splits `source` by row hash; rows are copied verbatim so shard
  /// vectors stay bitwise-identical to the source's.
  static Result<std::unique_ptr<ShardedIndex>> Partition(
      const EmbeddingIndex& source, const ShardedIndexOptions& options);

  int64_t num_shards() const {
    return static_cast<int64_t>(shards_.size());
  }
  int64_t size() const { return static_cast<int64_t>(ids_.size()); }
  int64_t dim() const { return dim_; }
  uint32_t model_fingerprint() const { return model_fingerprint_; }
  /// External image ids in GLOBAL row order (same as the source's).
  const std::vector<std::string>& ids() const { return ids_; }

  const EmbeddingIndex& shard(int64_t s) const { return *shards_[s]; }
  int64_t shard_size(int64_t s) const {
    return static_cast<int64_t>(global_rows_[s].size());
  }

  /// Sum of the shards' approximate resident bytes (crossem_index_bytes
  /// gauge input).
  int64_t MemoryBytes() const;

  /// Top-k of one shard with ids mapped to GLOBAL rows, best first.
  /// The mapping is ascending, so the list stays RanksBefore-sorted.
  std::vector<eval::ScoredId> SearchShard(int64_t s, const float* query,
                                          int64_t k,
                                          SearchDeadline deadline) const;

 private:
  ShardedIndex() = default;

  int64_t dim_ = 0;
  uint32_t model_fingerprint_ = 0;
  std::vector<std::string> ids_;  // global row order
  std::vector<std::unique_ptr<EmbeddingIndex>> shards_;
  std::vector<std::vector<int64_t>> global_rows_;  // per shard, ascending
};

/// True when a shard response is structurally sound: every score finite
/// with |score| <= 1.0001 (cosine of unit vectors), ids in
/// [0, num_rows), and the list RanksBefore-sorted. The scatter-gather
/// layer treats a failed validation as a shard failure.
bool ValidateShardResults(const std::vector<eval::ScoredId>& results,
                          int64_t num_rows);

// -- Circuit breaker ---------------------------------------------------------

/// Per-shard closed/open/half-open breaker. All mutation happens on the
/// thread running ScatterGather::Search; state() is an atomic snapshot
/// for monitors.
class CircuitBreaker {
 public:
  enum class State : int { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

  CircuitBreaker(int64_t failure_threshold, int64_t cooldown_micros)
      : failure_threshold_(failure_threshold),
        cooldown_(std::chrono::microseconds(cooldown_micros)) {}

  /// True when a request (or probe) may be sent now. An open breaker
  /// past its cooldown flips to half-open and admits exactly one probe;
  /// further calls are denied until that probe resolves.
  bool AllowRequest(std::chrono::steady_clock::time_point now);

  /// The admitted request succeeded: close (and reset the failure run).
  void RecordSuccess();

  /// The admitted request failed: extend the failure run; at the
  /// threshold (or on a failed half-open probe) the breaker opens.
  void RecordFailure(std::chrono::steady_clock::time_point now);

  State state() const {
    return static_cast<State>(state_.load(std::memory_order_relaxed));
  }
  int64_t opens() const { return opens_.load(std::memory_order_relaxed); }

 private:
  void SetState(State s) {
    state_.store(static_cast<int>(s), std::memory_order_relaxed);
  }

  const int64_t failure_threshold_;
  const std::chrono::microseconds cooldown_;
  std::atomic<int> state_{static_cast<int>(State::kClosed)};
  int64_t consecutive_failures_ = 0;
  std::atomic<int64_t> opens_{0};
  bool probe_in_flight_ = false;
  std::chrono::steady_clock::time_point opened_at_{};
};

// -- ScatterGather ------------------------------------------------------------

struct ResilienceOptions {
  /// Per-attempt time budget; the effective attempt deadline is
  /// min(now + this, request deadline).
  int64_t attempt_timeout_micros = 50000;
  /// Attempts per shard per query (1 = no retries). Hedges don't count.
  int64_t max_attempts = 3;
  /// Hedged second requests: enabled, the gather duplicates an attempt
  /// that outlives the shard's observed p95 latency. Until
  /// hedge_min_samples latencies are recorded the fixed
  /// hedge_delay_micros applies.
  bool hedging = true;
  int64_t hedge_delay_micros = 20000;
  int64_t hedge_min_samples = 32;
  /// Circuit breaker: consecutive failures to open, cooldown before the
  /// half-open probe.
  int64_t breaker_failure_threshold = 3;
  int64_t breaker_cooldown_micros = 250000;
};

/// Counters of the resilience envelope since service start, plus the
/// instantaneous per-shard breaker states.
struct ResilienceStats {
  int64_t shard_calls = 0;     // attempts dispatched (incl. hedges)
  int64_t shard_failures = 0;  // failed / timed-out / invalid attempts
  int64_t retries = 0;
  int64_t hedges = 0;
  int64_t hedge_wins = 0;      // hedge resolved its shard first
  int64_t breaker_opens = 0;
  int64_t breaker_skips = 0;   // shard skipped while breaker open
  int64_t corrupt_rejected = 0;
  int64_t degraded_responses = 0;
  std::vector<CircuitBreaker::State> breaker_states;  // per shard

  std::string ToString() const;
};

/// The sharded back end of a MatchService: owns the shard workers (two
/// per shard, so a hedge can overtake a stuck primary), one breaker per
/// shard and the resilience accounting. Search() is called by one
/// thread at a time — the service's batch worker.
class ScatterGather {
 public:
  using Clock = std::chrono::steady_clock;

  /// `index` is borrowed and must outlive this object. The shard
  /// workers start immediately.
  ScatterGather(const ShardedIndex* index, ResilienceOptions options);
  ~ScatterGather();  // implies Shutdown()

  ScatterGather(const ScatterGather&) = delete;
  ScatterGather& operator=(const ScatterGather&) = delete;

  /// What one gather found across the shards that answered in time.
  struct Gathered {
    std::vector<eval::ScoredId> found;  // merged top-k, global rows
    double coverage = 1.0;  // row-weighted share of the index searched
  };

  /// Scatters `query` to every shard, gathers under the resilience
  /// envelope until each shard answered, failed or ran out of time by
  /// `deadline`, and merges the top `k`. Request spans ("gather", then
  /// "shard_attempt" and "shard_search") parent onto `parent_span_id`.
  Gathered Search(std::vector<float> query, int64_t k,
                  Clock::time_point deadline,
                  const std::shared_ptr<obs::RequestTrace>& trace,
                  uint64_t parent_span_id);

  /// Joins the shard workers; calls still queued are discarded (no
  /// gather waits for them once Search has returned). Idempotent, but
  /// not concurrent with Search.
  void Shutdown();

  const ShardedIndex& index() const { return *index_; }
  ResilienceStats Snapshot() const;
  CircuitBreaker::State breaker_state(int64_t shard) const {
    return breakers_[shard]->state();
  }

 private:
  /// Per-request gather rendezvous, shared (via shared_ptr) with every
  /// attempt so an abandoned attempt outliving the request stays safe.
  struct GatherState {
    std::mutex mu;
    std::condition_variable cv;
  };

  /// One dispatched shard attempt. Outcome fields are guarded by
  /// gather->mu; the worker sets them exactly once.
  struct ShardCall {
    std::shared_ptr<GatherState> gather;
    std::shared_ptr<const std::vector<float>> query;
    int64_t shard = 0;
    int64_t k = 0;
    Clock::time_point deadline;  // per-attempt
    bool is_hedge = false;

    // Request-trace identity of this attempt (trace null = untraced).
    // The worker records its search span under span_id; the gather
    // records the attempt span itself when the outcome is known.
    std::shared_ptr<obs::RequestTrace> trace;
    uint64_t span_id = 0;
    uint64_t parent_span_id = 0;
    uint64_t launch_ns = 0;
    int64_t attempt_no = 0;

    bool done = false;
    bool ok = false;
    std::vector<eval::ScoredId> results;  // GLOBAL ids
    int64_t latency_us = 0;
    bool abandoned = false;  // the gather stopped caring
  };

  struct ShardRuntime {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::shared_ptr<ShardCall>> queue;
    std::vector<std::thread> workers;
    /// Observed attempt latencies; drives the adaptive hedge delay.
    obs::Histogram latency_us;
  };

  /// False when the shard queue is full (the attempt fails fast).
  bool Dispatch(const std::shared_ptr<ShardCall>& call);
  void ShardWorkerLoop(int64_t shard);
  int64_t HedgeDelayMicros(int64_t shard) const;

  const ShardedIndex* index_;
  const ResilienceOptions options_;

  // Resilience accounting: per-service instruments backing the exact
  // ResilienceStats snapshot, double-written into the process-wide
  // registry (resolved once at construction).
  struct ResilienceInstruments;
  std::unique_ptr<ResilienceInstruments> res_;

  std::vector<std::unique_ptr<CircuitBreaker>> breakers_;
  std::vector<std::unique_ptr<ShardRuntime>> shards_;
  std::atomic<bool> shutdown_{false};
  int64_t query_seq_ = 0;  // keys the retry jitter; Search's thread only
};

}  // namespace serve
}  // namespace crossem

#endif  // CROSSEM_SERVE_SHARDED_H_
