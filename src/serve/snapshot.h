// Versioned serving snapshots with atomic hot-swap (DESIGN.md §14).
//
// A ServingSnapshot is the unit a retrain rolls out: one immutable
// embedding index (optionally hash-partitioned into shards) plus the
// live MatchService over it — searching the index inline for one shard,
// scattering across the shards for several — under a single Match()
// surface.
// It is also the "engine wrapper" the CLI serves through, so the HTTP
// front end and crossem_serve share one code path.
//
// SnapshotManager is the RCU seam between request handlers and
// rollouts:
//
//   * Acquire() hands out a SnapshotLease — a shared_ptr to the
//     current snapshot plus a lease count inside the snapshot. The
//     fast path is one mutex-protected pointer copy and one relaxed
//     increment; a request keeps its lease for the duration of one
//     Match() call, so it always talks to one consistent
//     index+service pair even while a swap lands mid-request.
//
//   * LoadAndSwap(path) builds the NEXT snapshot in the calling thread
//     (CEMCKPT2 load, encoder-fingerprint handshake against the frozen
//     matcher, optional sharding, service construction) while the
//     CURRENT one keeps serving — the expensive part happens entirely
//     off the request path. Only the final pointer swap takes the
//     manager mutex; the version is assigned there too, so concurrent
//     rollouts publish distinct versions. Then a detached-in-spirit
//     retirer thread waits for the old snapshot's leases to drain,
//     shuts its service down gracefully (which drains the service
//     queue), and frees it.
//     Queries therefore never observe a missing or half-built engine:
//     zero dropped requests across a rollout is a hard invariant
//     (tests/net/snapshot_test.cc drills it under concurrent load).
//
// The handshake: an index whose recorded model fingerprint does not
// match the serving matcher is rejected before the swap — a retuned
// model cannot silently serve stale embeddings (same contract as
// crossem_serve's LoadIndexFor since PR 3).
#ifndef CROSSEM_SERVE_SNAPSHOT_H_
#define CROSSEM_SERVE_SNAPSHOT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/index.h"
#include "serve/service.h"
#include "serve/sharded.h"
#include "util/status.h"

namespace crossem {
namespace serve {

/// Engine shape shared by the CLI and the HTTP front end: how many
/// shards, and the front-end/resilience knobs.
struct EngineOptions {
  MatchServiceOptions base;
  /// > 1 partitions the index and serves it through a ScatterGather.
  int64_t shards = 1;
  ResilienceOptions resilience;
};

/// One immutable index + its query engine, with lease accounting.
class ServingSnapshot {
 public:
  /// Takes ownership of `index`; `matcher` is borrowed and must
  /// outlive the snapshot. Builds the (sharded) service immediately;
  /// the version is assigned when a SnapshotManager publishes it.
  static Result<std::unique_ptr<ServingSnapshot>> Create(
      const core::CrossEm* matcher, std::unique_ptr<EmbeddingIndex> index,
      const EngineOptions& options, std::string source);

  ~ServingSnapshot();

  Result<MatchResponse> Match(const MatchRequest& request);

  int64_t version() const { return version_; }
  const std::string& source() const { return source_; }
  int64_t rows() const { return index_->size(); }
  std::string backend() const { return index_->backend(); }
  quant::QuantFormat quant_format() const { return index_->quant_format(); }
  /// Approximate resident index bytes (all shards when sharded) —
  /// published as the crossem_index_bytes gauge at swap time.
  int64_t MemoryBytes() const {
    return sharded_index_ != nullptr ? sharded_index_->MemoryBytes()
                                     : index_->MemoryBytes();
  }
  uint32_t fingerprint() const { return index_->model_fingerprint(); }
  bool sharded() const { return sharded_index_ != nullptr; }
  int64_t shards() const {
    return sharded_index_ != nullptr ? sharded_index_->num_shards() : 1;
  }

  ServiceStats Stats() const { return service_->Snapshot(); }
  /// Engine p50 completion latency (admission Retry-After hint).
  int64_t LatencyP50Us() const { return Stats().latency_p50_us; }
  /// Resilience counters; empty stats when not sharded.
  ResilienceStats Resilience() const {
    return service_->ResilienceSnapshot();
  }

  /// Stops admitting, drains, joins workers. Idempotent; called by the
  /// manager's retirer after the lease count hits zero.
  void Shutdown();

  // Lease accounting (SnapshotLease calls these).
  void BeginLease() { leases_.fetch_add(1, std::memory_order_acquire); }
  void EndLease();
  /// Blocks until every outstanding lease is returned. Only called
  /// after the snapshot is unreachable from Acquire(), so the count is
  /// monotonically draining.
  void WaitLeasesDrained();
  int64_t leases() const { return leases_.load(std::memory_order_relaxed); }

 private:
  friend class SnapshotManager;  // assigns version_ at publication
  ServingSnapshot() = default;

  int64_t version_ = 0;
  std::string source_;
  std::unique_ptr<EmbeddingIndex> index_;
  std::unique_ptr<ShardedIndex> sharded_index_;  // null for one shard
  std::unique_ptr<MatchService> service_;

  std::atomic<int64_t> leases_{0};
  std::mutex drain_mu_;
  std::condition_variable drain_cv_;
};

/// RAII lease on the current snapshot. Falsy when the manager has no
/// snapshot yet (or is shut down) — the caller answers 503.
class SnapshotLease {
 public:
  SnapshotLease() = default;
  explicit SnapshotLease(std::shared_ptr<ServingSnapshot> snapshot)
      : snapshot_(std::move(snapshot)) {
    if (snapshot_ != nullptr) snapshot_->BeginLease();
  }
  SnapshotLease(SnapshotLease&& other) noexcept
      : snapshot_(std::move(other.snapshot_)) {
    other.snapshot_.reset();
  }
  SnapshotLease& operator=(SnapshotLease&& other) noexcept {
    Reset();
    snapshot_ = std::move(other.snapshot_);
    other.snapshot_.reset();
    return *this;
  }
  SnapshotLease(const SnapshotLease&) = delete;
  SnapshotLease& operator=(const SnapshotLease&) = delete;
  ~SnapshotLease() { Reset(); }

  void Reset() {
    if (snapshot_ != nullptr) {
      snapshot_->EndLease();
      snapshot_.reset();
    }
  }

  explicit operator bool() const { return snapshot_ != nullptr; }
  ServingSnapshot* operator->() { return snapshot_.get(); }
  const ServingSnapshot* operator->() const { return snapshot_.get(); }
  ServingSnapshot& operator*() { return *snapshot_; }

 private:
  std::shared_ptr<ServingSnapshot> snapshot_;
};

class SnapshotManager {
 public:
  /// `matcher` is borrowed and must outlive the manager. The manager
  /// starts empty: Acquire() is falsy until the first successful swap.
  SnapshotManager(const core::CrossEm* matcher, EngineOptions options);
  ~SnapshotManager();  // implies Shutdown()

  SnapshotManager(const SnapshotManager&) = delete;
  SnapshotManager& operator=(const SnapshotManager&) = delete;

  /// Loads a CEMCKPT2 index file, verifies the encoder-fingerprint
  /// handshake, builds the engine, swaps it in, and retires the old
  /// snapshot in the background. On any error the current snapshot
  /// keeps serving untouched.
  Status LoadAndSwap(const std::string& index_path);

  /// Same rollout protocol for an in-process index (tests, first boot
  /// from a freshly built index).
  Status SwapIndex(std::unique_ptr<EmbeddingIndex> index,
                   std::string source);

  /// Lease on the current snapshot; falsy when none is live.
  SnapshotLease Acquire();

  /// Version of the live snapshot (0 = none yet). Monotonic.
  int64_t version() const {
    return version_.load(std::memory_order_relaxed);
  }
  int64_t swaps() const { return swaps_.load(std::memory_order_relaxed); }

  /// Stops handing out leases, waits for the live snapshot to drain,
  /// shuts it down, joins every retirer. Idempotent.
  void Shutdown();

 private:
  Status Swap(std::unique_ptr<EmbeddingIndex> index, std::string source);
  void Retire(std::shared_ptr<ServingSnapshot> old);

  const core::CrossEm* matcher_;
  const EngineOptions options_;

  std::atomic<int64_t> version_{0};
  std::atomic<int64_t> swaps_{0};

  mutable std::mutex mu_;  // guards current_, retirers_, shutdown_
  std::shared_ptr<ServingSnapshot> current_;
  std::vector<std::thread> retirers_;
  bool shutdown_ = false;
};

}  // namespace serve
}  // namespace crossem

#endif  // CROSSEM_SERVE_SNAPSHOT_H_
