// Embedding indexes for online matching: top-k nearest neighbors over
// the frozen EncodeImages output under the cosine metric.
//
// Two interchangeable backends:
//   - FlatIndex: exact chunked scan (ParallelFor + the shared top-k
//     kernel). The recall baseline and the small-repository default.
//   - HnswIndex: a Hierarchical Navigable Small World graph. Insertion
//     order is fixed and batched: each batch first runs its neighbor
//     searches against the pre-batch graph in parallel, then links
//     sequentially in ascending id order — so the built graph is
//     bitwise-identical at any thread count (the PR-1 determinism
//     contract), at a small recall cost versus pure sequential
//     insertion.
//
// Vectors are L2-normalized on Add (cosine == dot). Both backends
// serialize through the CEMCKPT2 record layer (nn/serialize.h): CRC-32
// checked, atomically written, corrupt files rejected wholesale. Index
// files carry the fingerprint of the model that produced the embeddings
// so a retuned model cannot silently query a stale index.
//
// Either backend can store its rows block-quantized (serve/quant.h,
// DESIGN.md §16): construction with QuantFormat kF16/kInt8 keeps only
// compressed rows plus an exact-f32 side store, scans/graph walks score
// on the compressed rows via the quantized dot kernels, and Search
// re-scores the top rerank_k candidates from the side store so ranking
// quality survives quantization. Save writes the f32 rows to an
// "<index>.f32rank" side file; Load memory-maps it when present and
// degrades to quantized-only scores (clamped to [-1, 1]) when not.
#ifndef CROSSEM_SERVE_INDEX_H_
#define CROSSEM_SERVE_INDEX_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "eval/topk.h"
#include "nn/serialize.h"
#include "serve/quant.h"
#include "tensor/tensor.h"
#include "util/status.h"

namespace crossem {
namespace serve {

/// Search deadline: queries early-exit (returning what they have found
/// so far) once this steady-clock instant passes. kNoSearchDeadline
/// disables the checks entirely — that path never reads the clock.
using SearchDeadline = std::chrono::steady_clock::time_point;
inline constexpr SearchDeadline kNoSearchDeadline = SearchDeadline::max();

/// Abstract top-k retrieval over a repository of embeddings.
class EmbeddingIndex {
 public:
  virtual ~EmbeddingIndex() = default;

  /// Appends `embeddings` ([n, dim], any L2 norm; normalized copies are
  /// stored) with their external string ids. The first Add fixes dim.
  Status Add(const Tensor& embeddings, const std::vector<std::string>& ids);

  /// Appends `n` rows of width `dim` that are ALREADY L2-normalized,
  /// copied verbatim. Sharding uses this to split a built index:
  /// re-normalizing an already-normalized row can perturb its low-order
  /// bits, which would break the sharded-vs-single bitwise-identity
  /// contract.
  Status AddPreNormalized(const float* rows, int64_t n, int64_t dim,
                          const std::vector<std::string>& ids);

  /// Quantized analogue of AddPreNormalized for sharding: gathers rows
  /// `rows[0..ids.size())` of `source` bit-identically (blocks + scales
  /// copied verbatim, never re-quantized) and shares `source`'s exact
  /// side store through a row mapping. This index must be freshly
  /// constructed, empty, and of `source`'s format.
  Status AddQuantizedFrom(const EmbeddingIndex& source,
                          const std::vector<int64_t>& rows,
                          const std::vector<std::string>& ids);

  /// The k nearest stored vectors to `query` (length dim()) by cosine
  /// similarity, best first. Deterministic at any thread count for a
  /// non-expiring deadline; once `deadline` passes the scan stops early
  /// and returns the (possibly partial, possibly empty) best-so-far.
  virtual std::vector<eval::ScoredId> Search(const float* query, int64_t k,
                                             SearchDeadline deadline) const = 0;
  std::vector<eval::ScoredId> Search(const float* query, int64_t k) const {
    return Search(query, k, kNoSearchDeadline);
  }

  /// "flat" or "hnsw" (the token --backend accepts and files record).
  virtual std::string backend() const = 0;

  int64_t size() const { return static_cast<int64_t>(ids_.size()); }
  int64_t dim() const { return dim_; }
  const std::vector<std::string>& ids() const { return ids_; }

  /// Fingerprint of the model whose EncodeImages built this index
  /// (0 until set; persisted by Save, restored by Load).
  uint32_t model_fingerprint() const { return model_fingerprint_; }
  void set_model_fingerprint(uint32_t fp) { model_fingerprint_ = fp; }

  /// Row pointer into the normalized stored vectors. Only valid for a
  /// kF32 index — quantized indexes do not keep f32 rows in RAM.
  const float* vector(int64_t id) const { return data_.data() + id * dim_; }

  /// Storage format of the rows (kF32 unless chosen at construction).
  quant::QuantFormat quant_format() const { return format_; }

  /// How many top candidates Search re-scores from the exact store
  /// before truncating to k (quantized indexes only; persisted).
  int64_t rerank_k() const { return rerank_k_; }
  void set_rerank_k(int64_t k) { rerank_k_ = k; }

  /// The compressed rows (valid iff quant_format() != kF32).
  const quant::QuantStore& quant_store() const { return qstore_; }

  /// Exact f32 rows backing re-rank; null when a quantized index was
  /// loaded without its side file (re-rank then degrades to clamped
  /// quantized scores).
  const std::shared_ptr<const quant::ExactStore>& exact_store() const {
    return exact_;
  }

  /// Bytes of stored row payload (f32 rows, or quantized blocks +
  /// scales) — the bytes/entity numerator reported by the bench.
  int64_t VectorBytes() const;

  /// Approximate resident bytes: row payload + ids + backend extras
  /// (e.g. the HNSW adjacency lists). Feeds the crossem_index_bytes
  /// gauge.
  virtual int64_t MemoryBytes() const;

  /// Writes the index as one atomic CEMCKPT2 file.
  Status Save(const std::string& path) const;

  /// Loads an index file written by Save, dispatching on the recorded
  /// backend. Corruption or a malformed record set fails without
  /// returning a partially-built index.
  static Result<std::unique_ptr<EmbeddingIndex>> Load(const std::string& path);

 protected:
  /// Validates `n` rows of width `dim` and appends them to the row
  /// store and ids_, L2-normalizing unless `verbatim` (a quantized
  /// index quantizes the normalized rows into qstore_ and mirrors them
  /// into the exact store); returns the id of the first appended row
  /// via `first`.
  Status AppendRows(const float* src, int64_t n, int64_t dim,
                    const std::vector<std::string>& ids, bool verbatim,
                    int64_t* first);

  /// Backend hook run after rows [first, size()) land in the row store
  /// and ids_ (e.g. HNSW graph construction).
  virtual Status OnAppended(int64_t first) = 0;

  /// Cosine similarity of stored row `id` and an external query of
  /// length dim_: the scalar ascending f32 dot for kF32 (bitwise-stable
  /// across PRs), the selected quantized kernel otherwise.
  float Similarity(int64_t id, const float* query) const;

  /// Stored row `id` as an f32 query vector: a direct data_ pointer for
  /// kF32, a dequantized copy in a thread-local scratch otherwise. The
  /// pointer is invalidated by the next RowForQuery call on the same
  /// thread — use it immediately, never across another RowForQuery.
  const float* RowForQuery(int64_t id) const;

  /// Re-scores the top candidates from the exact store (quantized
  /// indexes; no-op truncation for kF32), re-sorts, truncates to k.
  std::vector<eval::ScoredId> ReRank(const float* query,
                                     std::vector<eval::ScoredId> cands,
                                     int64_t k) const;

  /// How many candidates Search must gather pre-re-rank for a final
  /// top-k: max(k, rerank_k) when quantized re-rank applies, k plain.
  int64_t FetchK(int64_t k) const {
    return format_ == quant::QuantFormat::kF32 ? k
                                               : std::max(k, rerank_k_);
  }

  /// Backend-specific records appended to Save's common set.
  virtual void AppendExtraRecords(
      std::vector<nn::CheckpointRecord>* out) const = 0;

  /// Restores backend state from a loaded file's records (by name).
  /// The base fields (vectors, ids, fingerprint) are already populated.
  virtual Status RestoreExtra(
      const std::map<std::string, const nn::CheckpointRecord*>& by_name,
      const std::string& path) = 0;

  int64_t dim_ = 0;
  std::vector<float> data_;          // kF32: [size, dim] normalized rows
  std::vector<std::string> ids_;     // external image ids, row order
  uint32_t model_fingerprint_ = 0;

  quant::QuantFormat format_ = quant::QuantFormat::kF32;
  quant::QuantStore qstore_;         // compressed rows (non-kF32)
  int64_t rerank_k_ = 64;
  /// Exact f32 rows for re-rank: the in-RAM mirror while building, the
  /// mmap'd side file after a Load, a mapped view in a shard.
  std::shared_ptr<const quant::ExactStore> exact_;
  /// The mutable in-RAM mirror exact_ aliases during in-process builds.
  std::shared_ptr<quant::MemoryExactStore> mem_exact_;
};

/// Exact brute-force backend (exact over its stored format — a
/// quantized FlatIndex scans compressed rows, then re-ranks).
class FlatIndex : public EmbeddingIndex {
 public:
  explicit FlatIndex(quant::QuantFormat format = quant::QuantFormat::kF32) {
    format_ = format;
  }

  using EmbeddingIndex::Search;
  std::vector<eval::ScoredId> Search(const float* query, int64_t k,
                                     SearchDeadline deadline) const override;
  std::string backend() const override { return "flat"; }

 protected:
  Status OnAppended(int64_t first) override;
  void AppendExtraRecords(
      std::vector<nn::CheckpointRecord>* out) const override;
  Status RestoreExtra(
      const std::map<std::string, const nn::CheckpointRecord*>& by_name,
      const std::string& path) override;
};

/// HNSW construction/search parameters.
struct HnswOptions {
  /// Max neighbors per node per layer (level 0 keeps 2*M).
  int64_t M = 16;
  /// Beam width while inserting.
  int64_t ef_construction = 128;
  /// Beam width while searching (raised to k when smaller).
  int64_t ef_search = 64;
  /// Level-assignment hash seed: part of the index identity — two
  /// builds agree iff seed, options and insertion order agree.
  uint64_t seed = 0x5eed5eed;
  /// Elements per construction batch; batch boundaries are fixed by
  /// element count alone, so they never depend on the thread count.
  int64_t build_batch = 64;
};

/// Approximate backend: HNSW graph over the stored vectors.
class HnswIndex : public EmbeddingIndex {
 public:
  explicit HnswIndex(HnswOptions options = {},
                     quant::QuantFormat format = quant::QuantFormat::kF32);

  using EmbeddingIndex::Search;
  std::vector<eval::ScoredId> Search(const float* query, int64_t k,
                                     SearchDeadline deadline) const override;
  std::string backend() const override { return "hnsw"; }
  int64_t MemoryBytes() const override;

  const HnswOptions& options() const { return options_; }
  /// Level-0 neighbor list of a node (determinism tests compare these).
  const std::vector<int32_t>& neighbors(int64_t id) const;
  int64_t max_level() const { return max_level_; }

 protected:
  Status OnAppended(int64_t first) override;
  void AppendExtraRecords(
      std::vector<nn::CheckpointRecord>* out) const override;
  Status RestoreExtra(
      const std::map<std::string, const nn::CheckpointRecord*>& by_name,
      const std::string& path) override;

 private:
  struct Node {
    int32_t level = 0;
    /// neighbors[l] for l in [0, level]; capped at 2*M on level 0 and M
    /// above.
    std::vector<std::vector<int32_t>> neighbors;
  };

  int64_t LevelFor(int64_t id) const;
  int64_t MaxNeighbors(int64_t level) const;

  /// Greedy single-best descent through [level_from, level_to).
  int64_t GreedyDescend(const float* query, int64_t entry, int64_t from,
                        int64_t to) const;

  /// Beam search at one level; returns up to `ef` candidates best first.
  /// Stops expanding (keeping results found so far) once `deadline`
  /// passes; construction-time callers leave it unset.
  std::vector<eval::ScoredId> SearchLayer(
      const float* query, int64_t entry, int64_t ef, int64_t level,
      SearchDeadline deadline = kNoSearchDeadline) const;

  /// Links `id` into the graph given its per-level candidate lists.
  void Link(int64_t id, const std::vector<std::vector<eval::ScoredId>>& cands);

  // HNSW Alg. 4 over a best-first-sorted candidate list: keep a candidate
  // only if it is closer to the base vector than to any already-kept
  // neighbor, then fill leftover slots with the closest rejected ones.
  std::vector<int32_t> SelectDiverse(const std::vector<eval::ScoredId>& sorted,
                                     int64_t max) const;

  HnswOptions options_;
  std::vector<Node> nodes_;
  int64_t entry_point_ = -1;
  int64_t max_level_ = -1;
};

}  // namespace serve
}  // namespace crossem

#endif  // CROSSEM_SERVE_INDEX_H_
