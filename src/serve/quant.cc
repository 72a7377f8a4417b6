#include "serve/quant.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>

#include "tensor/f16.h"
#include "util/crc32.h"
#include "util/fault_injection.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/target_clones.h"

namespace crossem {
namespace serve {
namespace quant {

namespace {

QuantKernel g_quant_kernel = QuantKernel::kAuto;

/// Accumulator lanes of the blocked kernels: eight running sums updated
/// in a fixed round-robin order (an 8-wide AVX2 float vector), folded
/// pairwise at the end. The blocked kernels are multi-versioned
/// (util/target_clones.h) and their AVX2 clone contracts the lane updates
/// into FMAs, so a result is deterministic on a given host but depends on
/// the clone its resolver picks. It differs from the scalar reference by
/// float reassociation and that contraction, both bounded by the op-test
/// NMSE tolerances.
constexpr int64_t kLanes = 8;

inline float FoldLanes(const float* lane) {
  return ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
         ((lane[4] + lane[5]) + (lane[6] + lane[7]));
}

}  // namespace

// -- Formats -----------------------------------------------------------------

const char* FormatName(QuantFormat format) {
  switch (format) {
    case QuantFormat::kF32:
      return "f32";
    case QuantFormat::kF16:
      return "f16";
    case QuantFormat::kInt8:
      return "int8";
  }
  return "?";
}

bool ParseFormat(const std::string& name, QuantFormat* out) {
  if (name == "f32") {
    *out = QuantFormat::kF32;
  } else if (name == "f16") {
    *out = QuantFormat::kF16;
  } else if (name == "int8") {
    *out = QuantFormat::kInt8;
  } else {
    return false;
  }
  return true;
}

int64_t BlocksPerRow(int64_t dim) {
  return (dim + kBlockSize - 1) / kBlockSize;
}

int64_t PayloadBytesPerRow(QuantFormat format, int64_t dim) {
  switch (format) {
    case QuantFormat::kF32:
      return dim * static_cast<int64_t>(sizeof(float));
    case QuantFormat::kF16:
      return dim * static_cast<int64_t>(sizeof(uint16_t));
    case QuantFormat::kInt8:
      return dim + BlocksPerRow(dim) * static_cast<int64_t>(sizeof(float));
  }
  return 0;
}

// -- Kernels -----------------------------------------------------------------

void SetQuantKernel(QuantKernel kernel) { g_quant_kernel = kernel; }
QuantKernel GetQuantKernel() { return g_quant_kernel; }

namespace {

/// All 2^16 half values decoded once (256 KiB): the branchy subnormal
/// handling in F16ToF32 is far too slow for a scan's inner loop, and a
/// table load is bit-identical to the function it memoizes, so both
/// kernels read it and the reference/blocked contract is untouched.
struct F16DecodeTable {
  float to_f32[1 << 16];
  F16DecodeTable() {
    for (uint32_t h = 0; h < (1u << 16); ++h) {
      to_f32[h] = F16ToF32(static_cast<uint16_t>(h));
    }
  }
};

const float* F16Lut() {
  static const F16DecodeTable table;
  return table.to_f32;
}

}  // namespace

float DotF16Reference(const uint16_t* row, const float* query, int64_t dim) {
  const float* lut = F16Lut();
  float acc = 0.0f;
  for (int64_t d = 0; d < dim; ++d) acc += lut[row[d]] * query[d];
  return acc;
}

CROSSEM_TARGET_CLONES
float DotF16Blocked(const uint16_t* row, const float* query, int64_t dim) {
  const float* lut = F16Lut();
  float lane[kLanes] = {0};
  int64_t d = 0;
  for (; d + kLanes <= dim; d += kLanes) {
    for (int64_t l = 0; l < kLanes; ++l) {
      lane[l] += lut[row[d + l]] * query[d + l];
    }
  }
  float acc = FoldLanes(lane);
  for (; d < dim; ++d) acc += lut[row[d]] * query[d];
  return acc;
}

float DotInt8Reference(const int8_t* row, const float* scales,
                       const float* query, int64_t dim) {
  float acc = 0.0f;
  for (int64_t b = 0; b * kBlockSize < dim; ++b) {
    const int64_t lo = b * kBlockSize;
    const int64_t hi = std::min(dim, lo + kBlockSize);
    float s = 0.0f;
    for (int64_t d = lo; d < hi; ++d) {
      s += static_cast<float>(row[d]) * query[d];
    }
    acc += scales[b] * s;
  }
  return acc;
}

CROSSEM_TARGET_CLONES
float DotInt8Blocked(const int8_t* row, const float* scales,
                     const float* query, int64_t dim) {
  const int64_t full = dim / kBlockSize;
  float acc = 0.0f;
  for (int64_t b = 0; b < full; ++b) {
    const int8_t* r = row + b * kBlockSize;
    const float* q = query + b * kBlockSize;
    float lane[kLanes] = {0};
    for (int64_t i = 0; i < kBlockSize; i += kLanes) {
      for (int64_t l = 0; l < kLanes; ++l) {
        lane[l] += static_cast<float>(r[i + l]) * q[i + l];
      }
    }
    acc += scales[b] * FoldLanes(lane);
  }
  const int64_t tail = full * kBlockSize;
  if (tail < dim) {
    float s = 0.0f;
    for (int64_t d = tail; d < dim; ++d) {
      s += static_cast<float>(row[d]) * query[d];
    }
    acc += scales[full] * s;
  }
  return acc;
}

float DotF16(const uint16_t* row, const float* query, int64_t dim) {
  return g_quant_kernel == QuantKernel::kReference
             ? DotF16Reference(row, query, dim)
             : DotF16Blocked(row, query, dim);
}

float DotInt8(const int8_t* row, const float* scales, const float* query,
              int64_t dim) {
  return g_quant_kernel == QuantKernel::kReference
             ? DotInt8Reference(row, scales, query, dim)
             : DotInt8Blocked(row, scales, query, dim);
}

// -- Row quantization --------------------------------------------------------

void QuantizeRowF16(const float* src, int64_t dim, uint16_t* out) {
  for (int64_t d = 0; d < dim; ++d) out[d] = F32ToF16(src[d]);
}

void DequantizeRowF16(const uint16_t* src, int64_t dim, float* out) {
  const float* lut = F16Lut();
  for (int64_t d = 0; d < dim; ++d) out[d] = lut[src[d]];
}

void QuantizeRowInt8(const float* src, int64_t dim, int8_t* out,
                     float* scales) {
  for (int64_t b = 0; b * kBlockSize < dim; ++b) {
    const int64_t lo = b * kBlockSize;
    const int64_t hi = std::min(dim, lo + kBlockSize);
    float amax = 0.0f;
    for (int64_t d = lo; d < hi; ++d) {
      amax = std::max(amax, std::fabs(src[d]));
    }
    const float scale = amax / 127.0f;
    const float inv = scale > 0.0f ? 1.0f / scale : 0.0f;
    scales[b] = scale;
    for (int64_t d = lo; d < hi; ++d) {
      // lrintf rounds to nearest even (default FP mode); |x * inv| <=
      // 127 by construction, so no clamp is needed.
      out[d] = static_cast<int8_t>(std::lrintf(src[d] * inv));
    }
  }
}

void DequantizeRowInt8(const int8_t* src, const float* scales, int64_t dim,
                       float* out) {
  for (int64_t b = 0; b * kBlockSize < dim; ++b) {
    const int64_t lo = b * kBlockSize;
    const int64_t hi = std::min(dim, lo + kBlockSize);
    const float s = scales[b];
    for (int64_t d = lo; d < hi; ++d) {
      out[d] = static_cast<float>(src[d]) * s;
    }
  }
}

// -- QuantStore --------------------------------------------------------------

void QuantStore::Init(QuantFormat format, int64_t dim) {
  CROSSEM_CHECK(format != QuantFormat::kF32);
  CROSSEM_CHECK_GT(dim, 0);
  CROSSEM_CHECK_EQ(n_, 0);
  format_ = format;
  dim_ = dim;
}

void QuantStore::AppendRows(const float* rows, int64_t n) {
  CROSSEM_CHECK_GT(dim_, 0);
  const int64_t first = n_;
  n_ += n;
  if (format_ == QuantFormat::kF16) {
    f16_.resize(static_cast<size_t>(n_ * dim_));
    ParallelFor(0, n, /*grain=*/256, [&](int64_t b, int64_t e) {
      for (int64_t r = b; r < e; ++r) {
        QuantizeRowF16(rows + r * dim_, dim_,
                       f16_.data() + (first + r) * dim_);
      }
    });
  } else {
    const int64_t bpr = blocks_per_row();
    q8_.resize(static_cast<size_t>(n_ * dim_));
    scales_.resize(static_cast<size_t>(n_ * bpr));
    ParallelFor(0, n, /*grain=*/256, [&](int64_t b, int64_t e) {
      for (int64_t r = b; r < e; ++r) {
        QuantizeRowInt8(rows + r * dim_, dim_,
                        q8_.data() + (first + r) * dim_,
                        scales_.data() + (first + r) * bpr);
      }
    });
  }
}

void QuantStore::AppendFrom(const QuantStore& src, const int64_t* rows,
                            int64_t n) {
  CROSSEM_CHECK(src.format_ == format_);
  CROSSEM_CHECK_EQ(src.dim_, dim_);
  const int64_t first = n_;
  n_ += n;
  if (format_ == QuantFormat::kF16) {
    f16_.resize(static_cast<size_t>(n_ * dim_));
    for (int64_t r = 0; r < n; ++r) {
      std::memcpy(f16_.data() + (first + r) * dim_,
                  src.f16_.data() + rows[r] * dim_,
                  static_cast<size_t>(dim_) * sizeof(uint16_t));
    }
  } else {
    const int64_t bpr = blocks_per_row();
    q8_.resize(static_cast<size_t>(n_ * dim_));
    scales_.resize(static_cast<size_t>(n_ * bpr));
    for (int64_t r = 0; r < n; ++r) {
      std::memcpy(q8_.data() + (first + r) * dim_,
                  src.q8_.data() + rows[r] * dim_,
                  static_cast<size_t>(dim_));
      std::memcpy(scales_.data() + (first + r) * bpr,
                  src.scales_.data() + rows[r] * bpr,
                  static_cast<size_t>(bpr) * sizeof(float));
    }
  }
}

float QuantStore::Dot(int64_t row, const float* query) const {
  if (format_ == QuantFormat::kF16) {
    return DotF16(f16_.data() + row * dim_, query, dim_);
  }
  return DotInt8(q8_.data() + row * dim_,
                 scales_.data() + row * blocks_per_row(), query, dim_);
}

void QuantStore::DequantizeRow(int64_t row, float* out) const {
  if (format_ == QuantFormat::kF16) {
    DequantizeRowF16(f16_.data() + row * dim_, dim_, out);
  } else {
    DequantizeRowInt8(q8_.data() + row * dim_,
                      scales_.data() + row * blocks_per_row(), dim_, out);
  }
}

int64_t QuantStore::PayloadBytes() const {
  return static_cast<int64_t>(f16_.size() * sizeof(uint16_t) +
                              q8_.size() * sizeof(int8_t) +
                              scales_.size() * sizeof(float));
}

Status QuantStore::Restore(QuantFormat format, int64_t dim, int64_t n,
                           const std::string& blocks,
                           std::vector<float> scales) {
  if (format == QuantFormat::kF32 || dim <= 0 || n < 0) {
    return Status::InvalidArgument("QuantStore::Restore: bad shape");
  }
  format_ = format;
  dim_ = dim;
  n_ = n;
  const size_t numel = static_cast<size_t>(n * dim);
  if (format == QuantFormat::kF16) {
    if (blocks.size() != numel * sizeof(uint16_t) || !scales.empty()) {
      return Status::InvalidArgument("QuantStore::Restore: f16 size mismatch");
    }
    f16_.resize(numel);
    std::memcpy(f16_.data(), blocks.data(), blocks.size());
  } else {
    if (blocks.size() != numel ||
        scales.size() != static_cast<size_t>(n * blocks_per_row())) {
      return Status::InvalidArgument(
          "QuantStore::Restore: int8 size mismatch");
    }
    q8_.resize(numel);
    std::memcpy(q8_.data(), blocks.data(), blocks.size());
    scales_ = std::move(scales);
  }
  return Status::OK();
}

// -- QuantizedVector ---------------------------------------------------------

QuantizedVector QuantizedVector::Encode(QuantFormat format, const float* src,
                                        int64_t dim) {
  QuantizedVector v;
  v.format = format;
  v.dim = dim;
  switch (format) {
    case QuantFormat::kF32:
      v.f32.assign(src, src + dim);
      break;
    case QuantFormat::kF16:
      v.f16.resize(static_cast<size_t>(dim));
      QuantizeRowF16(src, dim, v.f16.data());
      break;
    case QuantFormat::kInt8:
      v.q8.resize(static_cast<size_t>(dim));
      v.scales.resize(static_cast<size_t>(BlocksPerRow(dim)));
      QuantizeRowInt8(src, dim, v.q8.data(), v.scales.data());
      break;
  }
  return v;
}

void QuantizedVector::Decode(std::vector<float>* out) const {
  out->resize(static_cast<size_t>(dim));
  switch (format) {
    case QuantFormat::kF32:
      std::copy(f32.begin(), f32.end(), out->begin());
      break;
    case QuantFormat::kF16:
      DequantizeRowF16(f16.data(), dim, out->data());
      break;
    case QuantFormat::kInt8:
      DequantizeRowInt8(q8.data(), scales.data(), dim, out->data());
      break;
  }
}

int64_t QuantizedVector::ApproxBytes() const {
  return static_cast<int64_t>(f32.capacity() * sizeof(float) +
                              f16.capacity() * sizeof(uint16_t) +
                              q8.capacity() * sizeof(int8_t) +
                              scales.capacity() * sizeof(float));
}

// -- Exact f32 side store ----------------------------------------------------

void MemoryExactStore::AppendRows(const float* rows, int64_t n) {
  data_.insert(data_.end(), rows, rows + n * dim_);
}

bool MemoryExactStore::Row(int64_t id, float* out) const {
  std::memcpy(out, data_.data() + id * dim_,
              static_cast<size_t>(dim_) * sizeof(float));
  return true;
}

namespace {

// "<index>.f32rank" layout: 8-byte magic, i64 n, i64 dim, u32 CRC of
// the preceding 24 header bytes, then n*dim raw f32 rows. The payload
// carries no per-row checksum — a flipped bit there only perturbs
// re-rank scores — but the header CRC plus an exact file-size check
// reject truncation and header rot at open.
constexpr char kSideMagic[8] = {'C', 'E', 'M', 'F', '3', '2', 'R', '1'};
constexpr size_t kSideHeaderBytes =
    sizeof(kSideMagic) + 2 * sizeof(int64_t) + sizeof(uint32_t);

uint32_t SideHeaderCrc(int64_t n, int64_t dim) {
  uint32_t crc = Crc32Update(0, kSideMagic, sizeof(kSideMagic));
  crc = Crc32Update(crc, &n, sizeof(n));
  crc = Crc32Update(crc, &dim, sizeof(dim));
  return crc;
}

Status CorruptSide(const std::string& path, const std::string& what) {
  return Status::ParseError("corrupt exact side file '" + path + "': " +
                            what);
}

}  // namespace

std::string ExactSidePath(const std::string& index_path) {
  return index_path + ".f32rank";
}

Status WriteExactSideFile(const ExactStore& rows, const std::string& path) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = io::Fopen(tmp, "wb");
  if (f == nullptr) {
    return Status::IOError("cannot open '" + tmp + "' for writing");
  }
  const int64_t n = rows.size();
  const int64_t dim = rows.dim();
  const uint32_t crc = SideHeaderCrc(n, dim);
  bool ok = io::Fwrite(kSideMagic, 1, sizeof(kSideMagic), f) ==
                sizeof(kSideMagic) &&
            io::Fwrite(&n, sizeof(n), 1, f) == 1 &&
            io::Fwrite(&dim, sizeof(dim), 1, f) == 1 &&
            io::Fwrite(&crc, sizeof(crc), 1, f) == 1;
  std::vector<float> row(static_cast<size_t>(dim));
  for (int64_t i = 0; ok && i < n; ++i) {
    ok = rows.Row(i, row.data()) &&
         io::Fwrite(row.data(), sizeof(float), row.size(), f) == row.size();
  }
  ok = ok && io::Fflush(f) == 0 && io::Fsync(f) == 0;
  std::fclose(f);
  if (!ok) {
    io::Remove(tmp);
    return Status::IOError("write failed: '" + tmp + "'");
  }
  if (io::Rename(tmp, path) != 0) {
    io::Remove(tmp);
    return Status::IOError("rename failed: '" + tmp + "' -> '" + path + "'");
  }
  return Status::OK();
}

FileExactStore::~FileExactStore() {
  if (map_ != nullptr) ::munmap(map_, map_len_);
}

Result<std::unique_ptr<FileExactStore>> FileExactStore::Open(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError("cannot open '" + path + "' for reading");
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError("cannot stat '" + path + "'");
  }
  const size_t file_len = static_cast<size_t>(st.st_size);
  if (file_len < kSideHeaderBytes) {
    ::close(fd);
    return CorruptSide(path, "truncated header");
  }
  void* map = ::mmap(nullptr, file_len, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps the file alive
  if (map == MAP_FAILED) {
    return Status::IOError("cannot mmap '" + path + "'");
  }
  std::unique_ptr<FileExactStore> store(new FileExactStore());
  store->map_ = map;
  store->map_len_ = file_len;
  const char* p = static_cast<const char*>(map);
  if (std::memcmp(p, kSideMagic, sizeof(kSideMagic)) != 0) {
    return CorruptSide(path, "bad magic");
  }
  int64_t n = 0, dim = 0;
  uint32_t crc = 0;
  std::memcpy(&n, p + sizeof(kSideMagic), sizeof(n));
  std::memcpy(&dim, p + sizeof(kSideMagic) + sizeof(n), sizeof(dim));
  std::memcpy(&crc, p + sizeof(kSideMagic) + sizeof(n) + sizeof(dim),
              sizeof(crc));
  if (n < 0 || dim <= 0 || crc != SideHeaderCrc(n, dim)) {
    return CorruptSide(path, "header fails its checksum");
  }
  if (file_len != kSideHeaderBytes +
                      static_cast<size_t>(n) * static_cast<size_t>(dim) *
                          sizeof(float)) {
    return CorruptSide(path, "size does not match header");
  }
  store->n_ = n;
  store->dim_ = dim;
  store->rows_ = reinterpret_cast<const float*>(p + kSideHeaderBytes);
  return store;
}

bool FileExactStore::Row(int64_t id, float* out) const {
  if (id < 0 || id >= n_) return false;
  std::memcpy(out, rows_ + id * dim_,
              static_cast<size_t>(dim_) * sizeof(float));
  return true;
}

}  // namespace quant
}  // namespace serve
}  // namespace crossem
