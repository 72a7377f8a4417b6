#include "serve/snapshot.h"

#include <utility>

#include "obs/metrics.h"

namespace crossem {
namespace serve {

namespace {

/// Rollout observability: swap/failure counts and the live version,
/// published process-wide (resolved once; instruments are immortal).
struct SnapshotInstruments {
  obs::Counter* swaps;
  obs::Counter* load_failures;
  obs::Gauge* version;
  obs::Gauge* rows;
  obs::Gauge* index_bytes;
  obs::Gauge* index_entities;

  static const SnapshotInstruments& Get() {
    static const SnapshotInstruments* instruments = [] {
      auto& registry = obs::MetricsRegistry::Default();
      auto* i = new SnapshotInstruments();
      i->swaps = registry.GetCounter("crossem_snapshot_swaps_total");
      i->load_failures =
          registry.GetCounter("crossem_snapshot_load_failures_total");
      i->version = registry.GetGauge("crossem_snapshot_version");
      i->rows = registry.GetGauge("crossem_snapshot_rows");
      i->index_bytes = registry.GetGauge("crossem_index_bytes");
      i->index_entities = registry.GetGauge("crossem_index_entities");
      return i;
    }();
    return *instruments;
  }
};

}  // namespace

// -- ServingSnapshot ---------------------------------------------------------

Result<std::unique_ptr<ServingSnapshot>> ServingSnapshot::Create(
    const core::CrossEm* matcher, std::unique_ptr<EmbeddingIndex> index,
    const EngineOptions& options, std::string source) {
  if (index == nullptr) {
    return Status::InvalidArgument("ServingSnapshot: null index");
  }
  std::unique_ptr<ServingSnapshot> snap(new ServingSnapshot());
  snap->source_ = std::move(source);
  snap->index_ = std::move(index);
  if (options.shards > 1) {
    ShardedIndexOptions io;
    io.num_shards = options.shards;
    io.backend = snap->index_->backend();
    auto parts = ShardedIndex::Partition(*snap->index_, io);
    if (!parts.ok()) return parts.status();
    snap->sharded_index_ = parts.MoveValue();
    snap->service_ = std::make_unique<MatchService>(
        matcher, snap->sharded_index_.get(), options.base, options.resilience);
  } else {
    snap->service_ = std::make_unique<MatchService>(
        matcher, snap->index_.get(), options.base);
  }
  return snap;
}

ServingSnapshot::~ServingSnapshot() { Shutdown(); }

Result<MatchResponse> ServingSnapshot::Match(const MatchRequest& request) {
  return service_->Match(request);
}

void ServingSnapshot::Shutdown() {
  // Null only when Create failed before building the service.
  if (service_ != nullptr) service_->Shutdown();
}

void ServingSnapshot::EndLease() {
  if (leases_.fetch_sub(1, std::memory_order_release) == 1) {
    // Last lease out: wake a draining retirer (if any).
    std::lock_guard<std::mutex> lock(drain_mu_);
    drain_cv_.notify_all();
  }
}

void ServingSnapshot::WaitLeasesDrained() {
  std::unique_lock<std::mutex> lock(drain_mu_);
  drain_cv_.wait(lock, [&] {
    return leases_.load(std::memory_order_acquire) == 0;
  });
}

// -- SnapshotManager ---------------------------------------------------------

SnapshotManager::SnapshotManager(const core::CrossEm* matcher,
                                 EngineOptions options)
    : matcher_(matcher), options_(std::move(options)) {}

SnapshotManager::~SnapshotManager() { Shutdown(); }

Status SnapshotManager::LoadAndSwap(const std::string& index_path) {
  auto loaded = EmbeddingIndex::Load(index_path);
  if (!loaded.ok()) {
    SnapshotInstruments::Get().load_failures->Increment();
    return loaded.status();
  }
  std::unique_ptr<EmbeddingIndex> index = loaded.MoveValue();
  // Encoder-fingerprint handshake: a retuned model must not serve a
  // stale index (and vice versa).
  const uint32_t want = matcher_->EncoderFingerprint();
  if (index->model_fingerprint() != 0 &&
      index->model_fingerprint() != want) {
    SnapshotInstruments::Get().load_failures->Increment();
    return Status::InvalidArgument(
        "index " + index_path +
        " was built by a different model (fingerprint mismatch); "
        "rebuild with build-index");
  }
  return Swap(std::move(index), index_path);
}

Status SnapshotManager::SwapIndex(std::unique_ptr<EmbeddingIndex> index,
                                  std::string source) {
  if (index != nullptr && index->model_fingerprint() != 0 &&
      index->model_fingerprint() != matcher_->EncoderFingerprint()) {
    SnapshotInstruments::Get().load_failures->Increment();
    return Status::InvalidArgument(
        "in-process index fingerprint does not match the serving model");
  }
  return Swap(std::move(index), std::move(source));
}

Status SnapshotManager::Swap(std::unique_ptr<EmbeddingIndex> index,
                             std::string source) {
  // Build the whole next engine before touching the live pointer: the
  // current snapshot serves unperturbed through the expensive part.
  auto created = ServingSnapshot::Create(matcher_, std::move(index),
                                         options_, std::move(source));
  if (!created.ok()) {
    SnapshotInstruments::Get().load_failures->Increment();
    return created.status();
  }
  std::shared_ptr<ServingSnapshot> next(created.MoveValue().release());

  std::shared_ptr<ServingSnapshot> old;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      // The freshly built engine is never published; tear it down here.
      next->Shutdown();
      return Status::Unavailable("SnapshotManager is shut down");
    }
    // The version is taken here, not before the build, so concurrent
    // rollouts publish distinct versions and the gauge never steps back.
    next->version_ = version_.load(std::memory_order_relaxed) + 1;
    old = std::move(current_);
    current_ = next;
    version_.store(next->version_, std::memory_order_relaxed);
    swaps_.fetch_add(1, std::memory_order_relaxed);
    SnapshotInstruments::Get().version->Set(
        static_cast<double>(next->version_));
    if (old != nullptr) {
      // Retire in the background: in-flight leases finish on the old
      // engine; it is shut down only after the last returns.
      retirers_.emplace_back(
          [this, old = std::move(old)]() mutable { Retire(std::move(old)); });
    }
  }
  const auto& instruments = SnapshotInstruments::Get();
  instruments.swaps->Increment();
  instruments.rows->Set(static_cast<double>(next->rows()));
  // Memory footprint of the live snapshot: with the rows gauge this
  // puts bytes/entity per snapshot version on /metrics and in the
  // /metrics/history flight recorder.
  instruments.index_bytes->Set(static_cast<double>(next->MemoryBytes()));
  instruments.index_entities->Set(static_cast<double>(next->rows()));
  return Status::OK();
}

void SnapshotManager::Retire(std::shared_ptr<ServingSnapshot> old) {
  old->WaitLeasesDrained();
  old->Shutdown();
}

SnapshotLease SnapshotManager::Acquire() {
  std::lock_guard<std::mutex> lock(mu_);
  if (shutdown_ || current_ == nullptr) return SnapshotLease();
  return SnapshotLease(current_);
}

void SnapshotManager::Shutdown() {
  std::shared_ptr<ServingSnapshot> last;
  std::vector<std::thread> retirers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_ && current_ == nullptr && retirers_.empty()) return;
    shutdown_ = true;
    last = std::move(current_);
    current_.reset();
    retirers.swap(retirers_);
  }
  if (last != nullptr) {
    last->WaitLeasesDrained();
    last->Shutdown();
  }
  for (std::thread& t : retirers) t.join();
}

}  // namespace serve
}  // namespace crossem
