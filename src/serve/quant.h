// Block-quantized embedding storage and quantized dot-product kernels
// for the serving layer (DESIGN.md §16).
//
// Formats (QuantFormat):
//   - kF32:  the original full-precision rows (no QuantStore involved);
//   - kF16:  IEEE binary16 per element — 2 bytes/dim, ~1e-3 relative
//            error, no scales;
//   - kInt8: symmetric int8 with one f32 scale per 32-element block
//            (kBlockSize): q = round(x / s), s = max|x| / 127 over the
//            block — 1 byte/dim + 4 bytes per block.
//
// Queries stay f32 (they come straight off the text tower); only stored
// rows are compressed, so a dot product is sum over blocks of
// scale_b * sum_i q[i] * query[i] — no query quantization error.
//
// Kernels follow the SetGemmKernel idiom from tensor/ops.h: a scalar
// reference (strict ascending accumulation, the numerics oracle) and a
// lane-blocked variant compiled with target_clones so the dynamic
// loader picks an AVX2 build on CPUs that have it. Each variant has a
// fixed accumulation order, so results never depend on thread count;
// the two variants differ within per-format NMSE tolerances
// (tests/serve/quant_kernels_test.cc runs the full format x kernel
// table against the f32 reference).
//
// Exact re-rank: quantized indexes keep the original f32 rows in an
// ExactStore — in RAM while the index is built in-process, memory-mapped
// from the "<index>.f32rank" side file after a Load — and re-score the
// top rerank_k candidates exactly, which restores recall@10 >= 0.99 on
// the bench world while the scan itself runs on compressed rows.
#ifndef CROSSEM_SERVE_QUANT_H_
#define CROSSEM_SERVE_QUANT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/status.h"

namespace crossem {
namespace serve {
namespace quant {

// -- Formats -----------------------------------------------------------------

enum class QuantFormat : uint32_t { kF32 = 0, kF16 = 1, kInt8 = 2 };

/// Elements per int8 scale block.
inline constexpr int64_t kBlockSize = 32;

/// "f32" / "f16" / "int8" — the token --quant accepts and files record.
const char* FormatName(QuantFormat format);
bool ParseFormat(const std::string& name, QuantFormat* out);

/// Scale blocks per row (ceil; the last block may be partial).
int64_t BlocksPerRow(int64_t dim);

/// Stored bytes per row: vector payload plus (int8) its block scales.
int64_t PayloadBytesPerRow(QuantFormat format, int64_t dim);

// -- Kernel dispatch ---------------------------------------------------------

/// kAuto is the lane-blocked production kernel (AVX2 via target_clones
/// where the build allows); kReference the scalar ascending-order
/// oracle. Process-wide, set only from single-threaded setup code —
/// same contract as SetGemmKernel.
enum class QuantKernel { kAuto, kReference };
void SetQuantKernel(QuantKernel kernel);
QuantKernel GetQuantKernel();

/// Dot of one quantized row against an f32 query, via the selected
/// kernel. `scales` points at the row's BlocksPerRow(dim) block scales.
float DotF16(const uint16_t* row, const float* query, int64_t dim);
float DotInt8(const int8_t* row, const float* scales, const float* query,
              int64_t dim);

/// Fixed-kernel entry points (the op-test table calls each explicitly).
float DotF16Reference(const uint16_t* row, const float* query, int64_t dim);
float DotF16Blocked(const uint16_t* row, const float* query, int64_t dim);
float DotInt8Reference(const int8_t* row, const float* scales,
                       const float* query, int64_t dim);
float DotInt8Blocked(const int8_t* row, const float* scales,
                     const float* query, int64_t dim);

// -- Row quantization --------------------------------------------------------

void QuantizeRowF16(const float* src, int64_t dim, uint16_t* out);
void DequantizeRowF16(const uint16_t* src, int64_t dim, float* out);
/// `scales` receives BlocksPerRow(dim) entries.
void QuantizeRowInt8(const float* src, int64_t dim, int8_t* out,
                     float* scales);
void DequantizeRowInt8(const int8_t* src, const float* scales, int64_t dim,
                       float* out);

// -- QuantStore --------------------------------------------------------------

/// Row-major storage of quantized embedding rows (kF16 or kInt8): the
/// compressed half of a quantized EmbeddingIndex.
class QuantStore {
 public:
  /// Must be called (once) before rows are appended. `format` kF32 is
  /// invalid here — f32 indexes never build a QuantStore.
  void Init(QuantFormat format, int64_t dim);

  QuantFormat format() const { return format_; }
  int64_t dim() const { return dim_; }
  int64_t size() const { return n_; }
  int64_t blocks_per_row() const { return BlocksPerRow(dim_); }

  /// Quantizes and appends `n` f32 rows (parallel over rows; each row's
  /// encoding depends only on its own values, so the result is
  /// thread-count independent).
  void AppendRows(const float* rows, int64_t n);

  /// Gathers rows `rows[0..n)` of `src` verbatim (bit-identical blocks
  /// and scales — the sharded-partition contract).
  void AppendFrom(const QuantStore& src, const int64_t* rows, int64_t n);

  float Dot(int64_t row, const float* query) const;
  void DequantizeRow(int64_t row, float* out) const;

  /// Bytes of quantized blocks + scales actually stored.
  int64_t PayloadBytes() const;

  // Serialization access (save writes these verbatim; load restores
  // them bitwise).
  const std::vector<uint16_t>& f16_rows() const { return f16_; }
  const std::vector<int8_t>& int8_rows() const { return q8_; }
  const std::vector<float>& scales() const { return scales_; }

  /// Restores a store from its serialized payload; validates sizes
  /// against (format, dim, n).
  Status Restore(QuantFormat format, int64_t dim, int64_t n,
                 const std::string& blocks, std::vector<float> scales);

 private:
  QuantFormat format_ = QuantFormat::kF16;
  int64_t dim_ = 0;
  int64_t n_ = 0;
  std::vector<uint16_t> f16_;    // kF16: [n, dim]
  std::vector<int8_t> q8_;       // kInt8: [n, dim]
  std::vector<float> scales_;    // kInt8: [n, blocks_per_row]
};

// -- QuantizedVector ---------------------------------------------------------

/// One embedding in any format — the EmbeddingCache entry type, so
/// cached vectors can be held compressed and dequantized on hit.
struct QuantizedVector {
  QuantFormat format = QuantFormat::kF32;
  int64_t dim = 0;
  std::vector<float> f32;        // kF32
  std::vector<uint16_t> f16;     // kF16
  std::vector<int8_t> q8;        // kInt8
  std::vector<float> scales;     // kInt8

  static QuantizedVector Encode(QuantFormat format, const float* src,
                                int64_t dim);
  void Decode(std::vector<float>* out) const;
  /// Heap bytes held by this entry (payload vectors' capacity).
  int64_t ApproxBytes() const;
};

// -- Exact f32 side store ----------------------------------------------------

/// Random access to the original (pre-quantization, L2-normalized) f32
/// rows backing a quantized index: the exact re-rank source.
class ExactStore {
 public:
  virtual ~ExactStore() = default;
  virtual int64_t size() const = 0;
  virtual int64_t dim() const = 0;
  /// Copies row `id` (dim() floats) into `out`; false on failure.
  /// Thread-safe.
  virtual bool Row(int64_t id, float* out) const = 0;
};

/// In-RAM rows — used while a quantized index is built in-process (the
/// rows are needed anyway to write the side file on Save).
class MemoryExactStore final : public ExactStore {
 public:
  explicit MemoryExactStore(int64_t dim) : dim_(dim) {}
  void AppendRows(const float* rows, int64_t n);
  int64_t size() const override {
    return static_cast<int64_t>(data_.size()) / dim_;
  }
  int64_t dim() const override { return dim_; }
  bool Row(int64_t id, float* out) const override;

 private:
  int64_t dim_;
  std::vector<float> data_;
};

/// A view over another store through a local-row -> base-row mapping:
/// index shards share the source's exact store instead of duplicating
/// the f32 rows per shard.
class MappedExactStore final : public ExactStore {
 public:
  MappedExactStore(std::shared_ptr<const ExactStore> base,
                   std::vector<int64_t> rows)
      : base_(std::move(base)), rows_(std::move(rows)) {}
  int64_t size() const override {
    return static_cast<int64_t>(rows_.size());
  }
  int64_t dim() const override { return base_->dim(); }
  bool Row(int64_t id, float* out) const override {
    return base_->Row(rows_[static_cast<size_t>(id)], out);
  }

 private:
  std::shared_ptr<const ExactStore> base_;
  std::vector<int64_t> rows_;
};

/// Memory-mapped "<index>.f32rank" side file: header-validated at open,
/// page-cache backed (no per-row syscall), safe for concurrent readers.
class FileExactStore final : public ExactStore {
 public:
  static Result<std::unique_ptr<FileExactStore>> Open(
      const std::string& path);
  ~FileExactStore() override;
  int64_t size() const override { return n_; }
  int64_t dim() const override { return dim_; }
  bool Row(int64_t id, float* out) const override;

 private:
  FileExactStore() = default;
  int64_t n_ = 0;
  int64_t dim_ = 0;
  void* map_ = nullptr;      // whole-file mapping
  size_t map_len_ = 0;
  const float* rows_ = nullptr;  // first row within the mapping
};

/// Side-file path convention for index file `index_path`.
std::string ExactSidePath(const std::string& index_path);

/// Writes every row of `rows` as an exact side file (atomic: tmp +
/// fsync + rename, via the fault-injectable io wrappers).
Status WriteExactSideFile(const ExactStore& rows, const std::string& path);

}  // namespace quant
}  // namespace serve
}  // namespace crossem

#endif  // CROSSEM_SERVE_QUANT_H_
