#include "serve/sharded.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <utility>

#include "obs/trace.h"
#include "util/fault_injection.h"
#include "util/logging.h"

namespace crossem {
namespace serve {

namespace {

int64_t MicrosBetween(std::chrono::steady_clock::time_point from,
                      std::chrono::steady_clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::microseconds>(to - from)
      .count();
}

/// splitmix64 — row -> shard assignment and retry jitter share it, so a
/// sharding layout and a chaos drill's backoff schedule are both pure
/// functions of their seeds.
uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Row -> shard hash seed (part of the sharding identity).
constexpr uint64_t kShardHashSeed = 0x5eed0;

/// Bounded per-shard task queue; a full queue fails the attempt
/// immediately (breaker food) instead of blocking the gather.
constexpr int64_t kShardQueue = 128;

/// Search threads per shard: two let a hedge overtake a slow or stuck
/// primary on the same shard.
constexpr int64_t kWorkersPerShard = 2;

/// Exponential backoff between attempts: min(max, base << (n-1)) plus
/// deterministic jitter in [0, base) hashed from kJitterSeed, so a chaos
/// drill's backoff schedule is reproducible.
constexpr int64_t kBackoffBaseMicros = 2000;
constexpr int64_t kBackoffMaxMicros = 20000;
constexpr uint64_t kJitterSeed = 0x7edbeef;

int64_t BackoffMicros(int64_t query_seq, int64_t shard, int64_t attempt) {
  const int64_t shift = std::min<int64_t>(attempt - 1, 20);
  const int64_t base =
      std::min(kBackoffMaxMicros, kBackoffBaseMicros << shift);
  const uint64_t h = SplitMix64(
      kJitterSeed ^ (static_cast<uint64_t>(query_seq) << 20) ^
      (static_cast<uint64_t>(shard) << 8) ^ static_cast<uint64_t>(attempt));
  const int64_t jitter = static_cast<int64_t>(
      h % static_cast<uint64_t>(kBackoffBaseMicros));
  return base + jitter;
}

}  // namespace

// ---------------------------------------------------------------------------
// ShardedIndex
// ---------------------------------------------------------------------------

Result<std::unique_ptr<ShardedIndex>> ShardedIndex::Partition(
    const EmbeddingIndex& source, const ShardedIndexOptions& options) {
  if (options.num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1, got " +
                                   std::to_string(options.num_shards));
  }
  if (options.backend != "flat" && options.backend != "hnsw") {
    return Status::InvalidArgument("unknown shard backend '" +
                                   options.backend + "'");
  }
  std::unique_ptr<ShardedIndex> out(new ShardedIndex());
  out->dim_ = source.dim();
  out->model_fingerprint_ = source.model_fingerprint();
  out->ids_ = source.ids();
  const int64_t n_shards = options.num_shards;
  out->global_rows_.resize(static_cast<size_t>(n_shards));
  for (int64_t r = 0; r < source.size(); ++r) {
    const int64_t s = static_cast<int64_t>(
        SplitMix64(kShardHashSeed ^ static_cast<uint64_t>(r)) %
        static_cast<uint64_t>(n_shards));
    out->global_rows_[static_cast<size_t>(s)].push_back(r);
  }
  const quant::QuantFormat format = source.quant_format();
  for (int64_t s = 0; s < n_shards; ++s) {
    std::unique_ptr<EmbeddingIndex> shard;
    if (options.backend == "flat") {
      shard = std::make_unique<FlatIndex>(format);
    } else {
      shard = std::make_unique<HnswIndex>(HnswOptions{}, format);
    }
    const std::vector<int64_t>& rows = out->global_rows_[s];
    if (!rows.empty()) {
      std::vector<std::string> shard_ids;
      shard_ids.reserve(rows.size());
      for (int64_t r : rows) {
        shard_ids.push_back(source.ids()[static_cast<size_t>(r)]);
      }
      if (format != quant::QuantFormat::kF32) {
        // Quantized rows are gathered bit-identically (blocks + scales,
        // never re-quantized) and the shard re-ranks through a mapped
        // view of the source's exact store — no per-shard f32 copies.
        CROSSEM_RETURN_NOT_OK(
            shard->AddQuantizedFrom(source, rows, shard_ids));
      } else {
        // Gather the shard's rows verbatim — already normalized by the
        // source index, and re-normalizing could flip low-order bits.
        std::vector<float> buf(rows.size() *
                               static_cast<size_t>(out->dim_));
        for (size_t i = 0; i < rows.size(); ++i) {
          std::memcpy(buf.data() + i * static_cast<size_t>(out->dim_),
                      source.vector(rows[i]),
                      static_cast<size_t>(out->dim_) * sizeof(float));
        }
        CROSSEM_RETURN_NOT_OK(shard->AddPreNormalized(
            buf.data(), static_cast<int64_t>(rows.size()), out->dim_,
            shard_ids));
      }
    }
    shard->set_model_fingerprint(source.model_fingerprint());
    out->shards_.push_back(std::move(shard));
  }
  return out;
}

int64_t ShardedIndex::MemoryBytes() const {
  int64_t bytes = 0;
  for (const std::unique_ptr<EmbeddingIndex>& s : shards_) {
    bytes += s->MemoryBytes();
  }
  return bytes;
}

std::vector<eval::ScoredId> ShardedIndex::SearchShard(
    int64_t s, const float* query, int64_t k, SearchDeadline deadline) const {
  std::vector<eval::ScoredId> local = shards_[s]->Search(query, k, deadline);
  // Local row -> global row. The mapping is ascending, so equal-score
  // runs keep the global id order RanksBefore expects and MergeTopK
  // over per-shard lists reproduces the unsharded ranking exactly.
  const std::vector<int64_t>& rows = global_rows_[s];
  for (eval::ScoredId& r : local) r.id = rows[static_cast<size_t>(r.id)];
  return local;
}

bool ValidateShardResults(const std::vector<eval::ScoredId>& results,
                          int64_t num_rows) {
  const eval::ScoredId* prev = nullptr;
  for (const eval::ScoredId& r : results) {
    if (!std::isfinite(r.score) || std::fabs(r.score) > 1.0001f) return false;
    if (r.id < 0 || r.id >= num_rows) return false;
    if (prev != nullptr && eval::RanksBefore(r, *prev)) return false;
    prev = &r;
  }
  return true;
}

// ---------------------------------------------------------------------------
// CircuitBreaker
// ---------------------------------------------------------------------------

bool CircuitBreaker::AllowRequest(std::chrono::steady_clock::time_point now) {
  switch (state()) {
    case State::kClosed:
      return true;
    case State::kOpen:
      if (now - opened_at_ >= cooldown_) {
        SetState(State::kHalfOpen);
        probe_in_flight_ = true;
        return true;  // the single half-open probe
      }
      return false;
    case State::kHalfOpen:
      if (!probe_in_flight_) {
        probe_in_flight_ = true;
        return true;
      }
      return false;
  }
  return false;
}

void CircuitBreaker::RecordSuccess() {
  probe_in_flight_ = false;
  consecutive_failures_ = 0;
  SetState(State::kClosed);
}

void CircuitBreaker::RecordFailure(std::chrono::steady_clock::time_point now) {
  probe_in_flight_ = false;
  if (state() == State::kHalfOpen) {
    // Failed probe: straight back to open for another cooldown.
    SetState(State::kOpen);
    opened_at_ = now;
    opens_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (state() != State::kClosed) return;  // already open
  if (++consecutive_failures_ >= failure_threshold_) {
    SetState(State::kOpen);
    opened_at_ = now;
    consecutive_failures_ = 0;
    opens_.fetch_add(1, std::memory_order_relaxed);
  }
}

// ---------------------------------------------------------------------------
// ScatterGather
// ---------------------------------------------------------------------------

/// Per-service resilience instruments (exact snapshot semantics),
/// double-written into the process-wide `crossem_shard_*` /
/// `crossem_serve_*` registry aggregates.
struct ScatterGather::ResilienceInstruments {
  obs::Counter shard_calls;
  obs::Counter shard_failures;
  obs::Counter retries;
  obs::Counter hedges;
  obs::Counter hedge_wins;
  obs::Counter breaker_opens;
  obs::Counter breaker_skips;
  obs::Counter corrupt_rejected;
  obs::Counter degraded_responses;

  obs::Counter* g_shard_calls;
  obs::Counter* g_shard_failures;
  obs::Counter* g_retries;
  obs::Counter* g_hedges;
  obs::Counter* g_hedge_wins;
  obs::Counter* g_breaker_opens;
  obs::Counter* g_breaker_skips;
  obs::Counter* g_corrupt_rejected;
  obs::Counter* g_degraded;
  obs::Histogram* g_coverage_percent;
  obs::Histogram* g_shard_latency_us;

  ResilienceInstruments() {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
    g_shard_calls = reg.GetCounter("crossem_shard_calls_total");
    g_shard_failures = reg.GetCounter("crossem_shard_failures_total");
    g_retries = reg.GetCounter("crossem_shard_retries_total");
    g_hedges = reg.GetCounter("crossem_shard_hedges_total");
    g_hedge_wins = reg.GetCounter("crossem_shard_hedge_wins_total");
    g_breaker_opens = reg.GetCounter("crossem_shard_breaker_opens_total");
    g_breaker_skips = reg.GetCounter("crossem_shard_breaker_skips_total");
    g_corrupt_rejected =
        reg.GetCounter("crossem_shard_corrupt_rejected_total");
    g_degraded = reg.GetCounter("crossem_serve_degraded_total");
    g_coverage_percent = reg.GetHistogram("crossem_serve_coverage_percent");
    g_shard_latency_us = reg.GetHistogram("crossem_shard_latency_us");
  }
};

ScatterGather::ScatterGather(const ShardedIndex* index,
                             ResilienceOptions options)
    : index_(index),
      options_(std::move(options)),
      res_(std::make_unique<ResilienceInstruments>()) {
  CROSSEM_CHECK_GE(options_.max_attempts, 1);
  const int64_t n = index_->num_shards();
  for (int64_t s = 0; s < n; ++s) {
    breakers_.push_back(std::make_unique<CircuitBreaker>(
        options_.breaker_failure_threshold, options_.breaker_cooldown_micros));
    shards_.push_back(std::make_unique<ShardRuntime>());
  }
  for (int64_t s = 0; s < n; ++s) {
    for (int64_t w = 0; w < kWorkersPerShard; ++w) {
      shards_[s]->workers.emplace_back([this, s] { ShardWorkerLoop(s); });
    }
  }
}

ScatterGather::~ScatterGather() { Shutdown(); }

void ScatterGather::Shutdown() {
  // No Search is running, so every call still queued is abandoned;
  // workers drain and discard them, then exit.
  shutdown_.store(true, std::memory_order_relaxed);
  for (std::unique_ptr<ShardRuntime>& rt : shards_) {
    {
      std::lock_guard<std::mutex> lock(rt->mu);
    }
    rt->cv.notify_all();
  }
  for (std::unique_ptr<ShardRuntime>& rt : shards_) {
    for (std::thread& w : rt->workers) w.join();
    rt->workers.clear();
  }
}

bool ScatterGather::Dispatch(const std::shared_ptr<ShardCall>& call) {
  ShardRuntime& rt = *shards_[call->shard];
  {
    std::lock_guard<std::mutex> lock(rt.mu);
    if (static_cast<int64_t>(rt.queue.size()) >= kShardQueue) {
      return false;  // full queue fails the attempt fast (breaker food)
    }
    rt.queue.push_back(call);
  }
  rt.cv.notify_one();
  return true;
}

int64_t ScatterGather::HedgeDelayMicros(int64_t shard) const {
  const obs::Histogram& h = shards_[shard]->latency_us;
  if (h.count() >= options_.hedge_min_samples) {
    return std::max<int64_t>(1, h.Percentile(0.95));
  }
  return options_.hedge_delay_micros;
}

ScatterGather::Gathered ScatterGather::Search(
    std::vector<float> query_vector, int64_t candidates,
    Clock::time_point request_deadline,
    const std::shared_ptr<obs::RequestTrace>& trace,
    uint64_t parent_span_id) {
  CROSSEM_TRACE_SPAN_V(span, "sharded_gather");
  const int64_t n_shards = index_->num_shards();
  const int64_t query_seq = query_seq_++;
  auto query =
      std::make_shared<const std::vector<float>>(std::move(query_vector));
  auto gather = std::make_shared<GatherState>();

  // The gather span parents every shard attempt of this query; the
  // attempt spans are recorded when their outcome is known (completion,
  // timeout, abandonment, queue-full, or breaker skip), each tagged
  // with shard id, attempt number, hedge flag, and outcome.
  obs::RequestSpan gather_span(trace, "gather", parent_span_id);
  auto record_attempt_ids = [&](int64_t shard, int64_t attempt_no,
                                bool is_hedge, uint64_t span_id,
                                uint64_t span_parent, uint64_t launch_ns,
                                const char* outcome) {
    if (trace == nullptr) return;
    const uint64_t end_ns = obs::RequestNowNs();
    std::vector<obs::SpanArg> args(4);
    args[0].key = "shard";
    args[0].int_value = shard;
    args[1].key = "attempt";
    args[1].int_value = attempt_no;
    args[2].key = "hedge";
    args[2].int_value = is_hedge ? 1 : 0;
    args[3].key = "outcome";
    args[3].type = obs::SpanArg::Type::kString;
    args[3].string_value = outcome;
    trace->Record("shard_attempt", span_id, span_parent, launch_ns,
                  end_ns > launch_ns ? end_ns - launch_ns : 0,
                  std::move(args));
  };
  auto record_attempt = [&](const ShardCall& c, const char* outcome) {
    if (c.trace == nullptr) return;
    record_attempt_ids(c.shard, c.attempt_no, c.is_hedge, c.span_id,
                       c.parent_span_id, c.launch_ns, outcome);
  };

  struct PerShard {
    std::vector<std::shared_ptr<ShardCall>> inflight;
    int64_t attempts = 0;
    bool hedged = false;
    Clock::time_point next_attempt_at = Clock::time_point::min();
    Clock::time_point hedge_at = Clock::time_point::max();
    bool resolved = false;
    bool success = false;
    std::vector<eval::ScoredId> results;
  };
  std::vector<PerShard> ps(static_cast<size_t>(n_shards));
  int64_t unresolved = n_shards;

  /// A shard is done (either way): abandon whatever is still in flight.
  auto resolve = [&](int64_t s, bool success,
                     std::vector<eval::ScoredId> results) {
    PerShard& st = ps[static_cast<size_t>(s)];
    if (st.resolved) return;
    st.resolved = true;
    st.success = success;
    st.results = std::move(results);
    --unresolved;
    if (!st.inflight.empty()) {
      {
        std::lock_guard<std::mutex> lock(gather->mu);
        for (const std::shared_ptr<ShardCall>& c : st.inflight) {
          c->abandoned = true;
        }
      }
      for (const std::shared_ptr<ShardCall>& c : st.inflight) {
        record_attempt(*c, "abandoned");
      }
    }
    st.inflight.clear();
  };

  auto record_failure = [&](int64_t s, Clock::time_point now, bool corrupt) {
    const CircuitBreaker::State before = breakers_[s]->state();
    breakers_[s]->RecordFailure(now);
    res_->shard_failures.Increment();
    res_->g_shard_failures->Increment();
    if (corrupt) {
      res_->corrupt_rejected.Increment();
      res_->g_corrupt_rejected->Increment();
    }
    if (before != CircuitBreaker::State::kOpen &&
        breakers_[s]->state() == CircuitBreaker::State::kOpen) {
      res_->breaker_opens.Increment();
      res_->g_breaker_opens->Increment();
    }
  };

  auto launch = [&](int64_t s, Clock::time_point now, bool is_hedge) {
    PerShard& st = ps[static_cast<size_t>(s)];
    auto call = std::make_shared<ShardCall>();
    call->gather = gather;
    call->query = query;
    call->shard = s;
    call->k = candidates;
    call->deadline = std::min(
        now + std::chrono::microseconds(options_.attempt_timeout_micros),
        request_deadline);
    call->is_hedge = is_hedge;
    if (trace != nullptr) {
      call->trace = trace;
      call->span_id = obs::MintSpanId();
      call->parent_span_id = gather_span.span_id();
      call->launch_ns = obs::RequestNowNs();
      // Hedges carry the primary attempt number they shadow.
      call->attempt_no = is_hedge ? st.attempts : st.attempts + 1;
    }
    res_->shard_calls.Increment();
    res_->g_shard_calls->Increment();
    if (is_hedge) {
      res_->hedges.Increment();
      res_->g_hedges->Increment();
    } else {
      ++st.attempts;
      if (st.attempts > 1) {
        res_->retries.Increment();
        res_->g_retries->Increment();
      }
    }
    if (Dispatch(call)) {
      st.inflight.push_back(std::move(call));
      if (!is_hedge) {
        st.hedge_at =
            now + std::chrono::microseconds(HedgeDelayMicros(s));
      }
      return true;
    }
    record_attempt(*call, "queue_full");
    record_failure(s, now, /*corrupt=*/false);
    return false;
  };

  while (unresolved > 0) {
    const Clock::time_point now = Clock::now();

    // 1) Launch primaries, retries, and hedges that are due.
    for (int64_t s = 0; s < n_shards; ++s) {
      PerShard& st = ps[static_cast<size_t>(s)];
      if (st.resolved) continue;
      if (st.inflight.empty()) {
        if (st.attempts >= options_.max_attempts || now >= request_deadline) {
          resolve(s, false, {});
          continue;
        }
        if (now < st.next_attempt_at) continue;
        if (!breakers_[s]->AllowRequest(now)) {
          res_->breaker_skips.Increment();
          res_->g_breaker_skips->Increment();
          if (trace != nullptr) {
            // Zero-length span so the breaker decision shows in the tree.
            ShardCall skipped;
            skipped.trace = trace;
            skipped.shard = s;
            skipped.span_id = obs::MintSpanId();
            skipped.parent_span_id = gather_span.span_id();
            skipped.launch_ns = obs::RequestNowNs();
            skipped.attempt_no = st.attempts + 1;
            record_attempt(skipped, "breaker_open");
          }
          resolve(s, false, {});
          continue;
        }
        if (!launch(s, now, /*is_hedge=*/false)) {
          // Full shard queue: back off and retry (attempts counted, so
          // this terminates).
          st.next_attempt_at =
              now + std::chrono::microseconds(
                        BackoffMicros(query_seq, s, st.attempts));
        }
      } else if (options_.hedging && !st.hedged && st.inflight.size() == 1 &&
                 !st.inflight.front()->is_hedge && now >= st.hedge_at) {
        st.hedged = true;  // one hedge per shard per query, admitted or not
        if (breakers_[s]->AllowRequest(now)) {
          launch(s, now, /*is_hedge=*/true);
        }
      }
    }
    if (unresolved == 0) break;

    // 2) Next instant anything can change without a completion.
    Clock::time_point wake = request_deadline;
    for (int64_t s = 0; s < n_shards; ++s) {
      const PerShard& st = ps[static_cast<size_t>(s)];
      if (st.resolved) continue;
      if (st.inflight.empty()) {
        wake = std::min(wake, st.next_attempt_at);
      } else {
        for (const std::shared_ptr<ShardCall>& c : st.inflight) {
          wake = std::min(wake, c->deadline);
        }
        if (options_.hedging && !st.hedged && st.inflight.size() == 1) {
          wake = std::min(wake, st.hedge_at);
        }
      }
    }
    // Clock granularity guard: never spin on an already-passed instant.
    wake = std::max(wake, now + std::chrono::microseconds(100));

    // 3) Wait for a completion (or the wake time), then collect
    //    completions and expire timed-out attempts under the gather
    //    lock.
    struct Outcome {
      int64_t shard;
      bool ok;
      bool is_hedge;
      bool timed_out;
      int64_t latency_us;
      std::vector<eval::ScoredId> results;
      // Attempt-span identity carried out of the ShardCall so the span
      // can be recorded outside the gather lock.
      uint64_t span_id = 0;
      uint64_t parent_span_id = 0;
      uint64_t launch_ns = 0;
      int64_t attempt_no = 0;
    };
    std::vector<Outcome> outcomes;
    {
      std::unique_lock<std::mutex> lock(gather->mu);
      gather->cv.wait_until(lock, wake, [&] {
        for (int64_t s = 0; s < n_shards; ++s) {
          for (const std::shared_ptr<ShardCall>& c :
               ps[static_cast<size_t>(s)].inflight) {
            if (c->done) return true;
          }
        }
        return false;
      });
      const Clock::time_point now2 = Clock::now();
      for (int64_t s = 0; s < n_shards; ++s) {
        std::vector<std::shared_ptr<ShardCall>>& fl =
            ps[static_cast<size_t>(s)].inflight;
        for (size_t i = 0; i < fl.size();) {
          ShardCall& c = *fl[i];
          if (c.done) {
            outcomes.push_back(Outcome{s, c.ok, c.is_hedge, false,
                                       c.latency_us, std::move(c.results),
                                       c.span_id, c.parent_span_id,
                                       c.launch_ns, c.attempt_no});
            fl.erase(fl.begin() + static_cast<int64_t>(i));
          } else if (c.deadline <= now2) {
            c.abandoned = true;  // a late worker reply is discarded
            outcomes.push_back(Outcome{s, false, c.is_hedge, true, 0, {},
                                       c.span_id, c.parent_span_id,
                                       c.launch_ns, c.attempt_no});
            fl.erase(fl.begin() + static_cast<int64_t>(i));
          } else {
            ++i;
          }
        }
      }
    }

    // 4) Apply the outcomes.
    for (Outcome& o : outcomes) {
      PerShard& st = ps[static_cast<size_t>(o.shard)];
      const bool valid =
          o.ok && ValidateShardResults(o.results, index_->size());
      record_attempt_ids(o.shard, o.attempt_no, o.is_hedge, o.span_id,
                         o.parent_span_id, o.launch_ns,
                         valid          ? "ok"
                         : o.timed_out  ? "timeout"
                         : o.ok         ? "invalid"
                                        : "failed");
      if (st.resolved) continue;  // late sibling of a resolved shard
      const Clock::time_point onow = Clock::now();
      if (valid) {
        breakers_[o.shard]->RecordSuccess();
        shards_[o.shard]->latency_us.Record(std::max<int64_t>(
            1, o.latency_us));
        res_->g_shard_latency_us->Record(std::max<int64_t>(1, o.latency_us));
        if (o.is_hedge) {
          res_->hedge_wins.Increment();
          res_->g_hedge_wins->Increment();
        }
        resolve(o.shard, true, std::move(o.results));
        continue;
      }
      record_failure(o.shard, onow, /*corrupt=*/o.ok && !o.timed_out);
      if (st.inflight.empty()) {
        if (st.attempts >= options_.max_attempts || onow >= request_deadline) {
          resolve(o.shard, false, {});
        } else {
          st.next_attempt_at =
              onow + std::chrono::microseconds(
                         BackoffMicros(query_seq, o.shard, st.attempts));
        }
      }
      // A sibling still in flight keeps the shard's hopes alive.
    }
  }

  // Merge whatever the healthy shards produced. Parts arrive in shard
  // order; MergeTopK's (score desc, id asc) order makes the result
  // independent of that ordering anyway.
  std::vector<std::vector<eval::ScoredId>> parts;
  int64_t covered_rows = 0;
  for (int64_t s = 0; s < n_shards; ++s) {
    PerShard& st = ps[static_cast<size_t>(s)];
    if (!st.success) continue;
    covered_rows += index_->shard_size(s);
    parts.push_back(std::move(st.results));
  }
  const int64_t total_rows = index_->size();
  Gathered out;
  out.coverage =
      total_rows == 0
          ? 1.0
          : static_cast<double>(covered_rows) / static_cast<double>(total_rows);
  const bool degraded = covered_rows < total_rows;
  if (degraded) {
    res_->degraded_responses.Increment();
    res_->g_degraded->Increment();
  }
  const int64_t coverage_pct =
      static_cast<int64_t>(out.coverage * 100.0 + 0.5);
  res_->g_coverage_percent->Record(coverage_pct);
  span.Arg("coverage_pct", coverage_pct);
  gather_span.Arg("coverage_pct", coverage_pct)
      .Arg("degraded", int64_t{degraded ? 1 : 0});

  out.found = eval::MergeTopK(parts, candidates);
  return out;
}

void ScatterGather::ShardWorkerLoop(int64_t shard) {
  obs::SetThreadName("shard-worker-" + std::to_string(shard));
  ShardRuntime& rt = *shards_[shard];
  for (;;) {
    std::shared_ptr<ShardCall> call;
    {
      std::unique_lock<std::mutex> lock(rt.mu);
      rt.cv.wait(lock, [&] {
        return shutdown_.load(std::memory_order_relaxed) ||
               !rt.queue.empty();
      });
      if (rt.queue.empty()) return;  // shutdown, drained
      call = std::move(rt.queue.front());
      rt.queue.pop_front();
    }
    {
      std::lock_guard<std::mutex> lock(call->gather->mu);
      if (call->abandoned) continue;  // nobody is waiting anymore
    }

    const fault::ShardFaultAction action = fault::OnShardCall(shard);
    if (action.mode == fault::ShardFaultMode::kStuck) {
      // Hold this worker hostage until the caller gives up (or the
      // service shuts down) — the stuck-shard drill.
      for (;;) {
        if (shutdown_.load(std::memory_order_relaxed)) break;
        {
          std::lock_guard<std::mutex> lock(call->gather->mu);
          if (call->abandoned) break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      continue;
    }
    if (action.mode == fault::ShardFaultMode::kDrop) {
      continue;  // discarded without a reply; the caller times out
    }
    if (action.mode == fault::ShardFaultMode::kDelay) {
      std::this_thread::sleep_for(std::chrono::milliseconds(action.delay_ms));
    }

    const Clock::time_point start = Clock::now();
    const uint64_t search_start_ns =
        call->trace != nullptr ? obs::RequestNowNs() : 0;
    std::vector<eval::ScoredId> results = index_->SearchShard(
        shard, call->query->data(), call->k, call->deadline);
    const Clock::time_point end = Clock::now();
    if (call->trace != nullptr) {
      // The worker-side view of the attempt: actual search time on this
      // shard, parented under the gather's attempt span.
      const uint64_t search_end_ns = obs::RequestNowNs();
      std::vector<obs::SpanArg> args(1);
      args[0].key = "shard";
      args[0].int_value = shard;
      call->trace->Record(
          "shard_search", obs::MintSpanId(), call->span_id, search_start_ns,
          search_end_ns > search_start_ns ? search_end_ns - search_start_ns
                                          : 0,
          std::move(args));
    }
    // A search that ran past its deadline may have early-exited with an
    // incomplete scan; delivering it as a success would silently shrink
    // coverage. Late == failed.
    bool ok = end <= call->deadline;
    if (action.mode == fault::ShardFaultMode::kCorrupt) {
      // Deterministic garbage: monotone map keeps the order plausible
      // while the magnitude breaks the |score| <= 1 invariant the
      // gather validates.
      for (eval::ScoredId& r : results) r.score = r.score * 3.0f + 4.0f;
      ok = true;
    }

    {
      std::lock_guard<std::mutex> lock(call->gather->mu);
      if (!call->abandoned) {
        call->done = true;
        call->ok = ok;
        call->results = std::move(results);
        call->latency_us = MicrosBetween(start, end);
      }
    }
    call->gather->cv.notify_all();
  }
}

ResilienceStats ScatterGather::Snapshot() const {
  ResilienceStats s;
  s.shard_calls = res_->shard_calls.Value();
  s.shard_failures = res_->shard_failures.Value();
  s.retries = res_->retries.Value();
  s.hedges = res_->hedges.Value();
  s.hedge_wins = res_->hedge_wins.Value();
  s.breaker_opens = res_->breaker_opens.Value();
  s.breaker_skips = res_->breaker_skips.Value();
  s.corrupt_rejected = res_->corrupt_rejected.Value();
  s.degraded_responses = res_->degraded_responses.Value();
  s.breaker_states.reserve(breakers_.size());
  for (const std::unique_ptr<CircuitBreaker>& b : breakers_) {
    s.breaker_states.push_back(b->state());
  }
  return s;
}

std::string ResilienceStats::ToString() const {
  std::string states;
  for (CircuitBreaker::State st : breaker_states) {
    if (!states.empty()) states += ',';
    states += st == CircuitBreaker::State::kClosed     ? "closed"
              : st == CircuitBreaker::State::kOpen     ? "open"
                                                       : "half-open";
  }
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "shard_calls=%lld failures=%lld retries=%lld hedges=%lld "
      "hedge_wins=%lld breaker(opens=%lld, skips=%lld, states=[%s]) "
      "corrupt_rejected=%lld degraded=%lld",
      static_cast<long long>(shard_calls),
      static_cast<long long>(shard_failures),
      static_cast<long long>(retries), static_cast<long long>(hedges),
      static_cast<long long>(hedge_wins),
      static_cast<long long>(breaker_opens),
      static_cast<long long>(breaker_skips), states.c_str(),
      static_cast<long long>(corrupt_rejected),
      static_cast<long long>(degraded_responses));
  return buf;
}

}  // namespace serve
}  // namespace crossem
