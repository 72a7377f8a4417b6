// Quantized-kernel op tests (DESIGN.md §16): every (format x kernel)
// cell of the dispatch table is run against a float64 scalar oracle and
// must land within its format's NMSE tolerance, at 1 and 8 threads —
// quantization is parallel over rows, so the thread sweep also proves
// the encoded bytes are thread-count independent. Plus the exhaustive
// 2^16 f16 round-trip sweep and the QuantizedVector cache-entry codec.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "serve/quant.h"
#include "tensor/f16.h"
#include "tensor/tensor.h"
#include "util/parallel.h"
#include "util/random.h"

namespace crossem {
namespace serve {
namespace quant {
namespace {

// The op-test worlds: rows ~ mixture noise, queries ~ N(0, 1). Dims hit
// sub-block (1, 7, 31), exact-block (32, 64, 512), and straddling
// (33, 100) shapes so every tail path in the kernels runs.
constexpr int64_t kDims[] = {1, 7, 31, 32, 33, 64, 100, 512};
constexpr int64_t kRows = 64;
constexpr int64_t kQueries = 16;

/// Scalar float64 oracle over the original f32 rows.
double ExactDot(const float* row, const float* query, int64_t dim) {
  double acc = 0.0;
  for (int64_t d = 0; d < dim; ++d) {
    acc += static_cast<double>(row[d]) * static_cast<double>(query[d]);
  }
  return acc;
}

/// One cell of the (format x kernel) table: quantizes `rows` into a
/// QuantStore, scores every (row, query) pair through `dot`, and
/// returns NMSE = sum (exact - got)^2 / sum exact^2.
struct Cell {
  const char* format;
  const char* kernel;
  double tolerance;
  double (*dot)(const QuantStore& store, int64_t row, const float* query);
};

double CellF16Reference(const QuantStore& s, int64_t row, const float* q) {
  return DotF16Reference(s.f16_rows().data() + row * s.dim(), q, s.dim());
}
double CellF16Blocked(const QuantStore& s, int64_t row, const float* q) {
  return DotF16Blocked(s.f16_rows().data() + row * s.dim(), q, s.dim());
}
double CellInt8Reference(const QuantStore& s, int64_t row, const float* q) {
  return DotInt8Reference(s.int8_rows().data() + row * s.dim(),
                          s.scales().data() + row * s.blocks_per_row(), q,
                          s.dim());
}
double CellInt8Blocked(const QuantStore& s, int64_t row, const float* q) {
  return DotInt8Blocked(s.int8_rows().data() + row * s.dim(),
                        s.scales().data() + row * s.blocks_per_row(), q,
                        s.dim());
}

// f16 carries ~11 significand bits (per-element RMS relative error
// ~2^-12 -> NMSE ~1e-7); int8 one scale per 32 elements (~1e-5 after
// the block max soaks up the dynamic range). Tolerances leave an order
// of magnitude of headroom without letting a broken kernel through.
constexpr Cell kCells[] = {
    {"f16", "reference", 1e-6, CellF16Reference},
    {"f16", "blocked", 1e-6, CellF16Blocked},
    {"int8", "reference", 5e-4, CellInt8Reference},
    {"int8", "blocked", 5e-4, CellInt8Blocked},
};

QuantFormat FormatOf(const Cell& cell) {
  return std::string(cell.format) == "f16" ? QuantFormat::kF16
                                           : QuantFormat::kInt8;
}

TEST(QuantKernelTable, EveryCellWithinToleranceAtOneAndEightThreads) {
  for (const int threads : {1, 8}) {
    SetNumThreads(threads);
    for (const Cell& cell : kCells) {
      for (const int64_t dim : kDims) {
        Rng rng(0x9000 + dim);
        Tensor rows = Tensor::Randn({kRows, dim}, &rng, 1.0f);
        Tensor queries = Tensor::Randn({kQueries, dim}, &rng, 1.0f);

        QuantStore store;
        store.Init(FormatOf(cell), dim);
        store.AppendRows(rows.data(), kRows);

        double err = 0.0, ref = 0.0;
        for (int64_t r = 0; r < kRows; ++r) {
          for (int64_t q = 0; q < kQueries; ++q) {
            const float* query = queries.data() + q * dim;
            const double exact = ExactDot(rows.data() + r * dim, query, dim);
            const double got = cell.dot(store, r, query);
            err += (exact - got) * (exact - got);
            ref += exact * exact;
          }
        }
        const double nmse = ref > 0.0 ? err / ref : err;
        EXPECT_LE(nmse, cell.tolerance)
            << cell.format << " x " << cell.kernel << " dim " << dim << " @ "
            << threads << " threads";
        std::printf("quant-op %4s x %-9s dim %4lld threads %d nmse %.3e\n",
                    cell.format, cell.kernel, static_cast<long long>(dim),
                    threads, nmse);
      }
    }
  }
  SetNumThreads(0);
}

TEST(QuantKernelTable, QuantizationIsThreadCountIndependent) {
  const int64_t dim = 100;
  Rng rng(0xabc);
  Tensor rows = Tensor::Randn({256, dim}, &rng, 1.0f);
  for (const QuantFormat format : {QuantFormat::kF16, QuantFormat::kInt8}) {
    SetNumThreads(1);
    QuantStore one;
    one.Init(format, dim);
    one.AppendRows(rows.data(), 256);
    SetNumThreads(8);
    QuantStore eight;
    eight.Init(format, dim);
    eight.AppendRows(rows.data(), 256);
    SetNumThreads(0);
    EXPECT_EQ(one.f16_rows(), eight.f16_rows()) << FormatName(format);
    EXPECT_EQ(one.int8_rows(), eight.int8_rows()) << FormatName(format);
    EXPECT_EQ(one.scales(), eight.scales()) << FormatName(format);
  }
}

TEST(QuantKernelTable, DispatchedKernelsMatchTheirFixedEntries) {
  const int64_t dim = 67;  // two full blocks + a tail
  Rng rng(0x777);
  Tensor row = Tensor::Randn({1, dim}, &rng, 1.0f);
  Tensor query = Tensor::Randn({1, dim}, &rng, 1.0f);

  std::vector<uint16_t> h(dim);
  QuantizeRowF16(row.data(), dim, h.data());
  std::vector<int8_t> q8(dim);
  std::vector<float> scales(BlocksPerRow(dim));
  QuantizeRowInt8(row.data(), dim, q8.data(), scales.data());

  SetQuantKernel(QuantKernel::kReference);
  EXPECT_EQ(DotF16(h.data(), query.data(), dim),
            DotF16Reference(h.data(), query.data(), dim));
  EXPECT_EQ(DotInt8(q8.data(), scales.data(), query.data(), dim),
            DotInt8Reference(q8.data(), scales.data(), query.data(), dim));
  SetQuantKernel(QuantKernel::kAuto);
  EXPECT_EQ(DotF16(h.data(), query.data(), dim),
            DotF16Blocked(h.data(), query.data(), dim));
  EXPECT_EQ(DotInt8(q8.data(), scales.data(), query.data(), dim),
            DotInt8Blocked(q8.data(), scales.data(), query.data(), dim));
}

TEST(F16Test, AllFiniteHalvesRoundTripBitIdentical) {
  int64_t checked = 0;
  for (uint32_t h = 0; h <= 0xffffu; ++h) {
    const uint16_t half = static_cast<uint16_t>(h);
    const bool is_nan = (half & 0x7c00u) == 0x7c00u && (half & 0x3ffu) != 0;
    const uint16_t back = F32ToF16(F16ToF32(half));
    if (is_nan) {
      // NaN payloads collapse to the canonical quiet NaN — but stay NaN.
      EXPECT_EQ(back & 0x7c00u, 0x7c00u);
      EXPECT_NE(back & 0x3ffu, 0u);
    } else {
      ASSERT_EQ(back, half) << "half 0x" << std::hex << h;
      ++checked;
    }
  }
  EXPECT_EQ(checked, 65536 - 2 * 1023);  // all but the NaN space
}

TEST(F16Test, RoundsToNearestEvenAndSaturates) {
  // 1.0 + 2^-11 is exactly between 1.0 and the next half; ties-to-even
  // keeps the even mantissa (1.0).
  EXPECT_EQ(F32ToF16(1.0f + 0x1p-11f), F32ToF16(1.0f));
  // Just above the midpoint rounds up.
  EXPECT_EQ(F32ToF16(1.0f + 0x1p-11f + 0x1p-20f), 0x3c01);
  // Largest finite half; anything at or past the rounding boundary is inf.
  EXPECT_EQ(F16ToF32(0x7bff), 65504.0f);
  EXPECT_EQ(F32ToF16(65504.0f), 0x7bff);
  EXPECT_EQ(F32ToF16(65520.0f), 0x7c00);  // rounds to 2^16 -> saturates
  EXPECT_EQ(F32ToF16(1e9f), 0x7c00);
  EXPECT_EQ(F32ToF16(-1e9f), 0xfc00);
  // Subnormals survive.
  EXPECT_EQ(F32ToF16(F16ToF32(0x0001)), 0x0001);
  // Signed zero survives.
  EXPECT_EQ(F32ToF16(-0.0f), 0x8000);
}

TEST(QuantizedVectorTest, EncodeDecodeEveryFormat) {
  const int64_t dim = 45;
  Rng rng(0x51);
  Tensor src = Tensor::Randn({1, dim}, &rng, 1.0f);
  for (const QuantFormat format :
       {QuantFormat::kF32, QuantFormat::kF16, QuantFormat::kInt8}) {
    QuantizedVector v = QuantizedVector::Encode(format, src.data(), dim);
    EXPECT_EQ(v.format, format);
    EXPECT_EQ(v.dim, dim);
    EXPECT_GT(v.ApproxBytes(), 0);
    std::vector<float> out;
    v.Decode(&out);
    ASSERT_EQ(static_cast<int64_t>(out.size()), dim);
    double err = 0.0, ref = 0.0;
    for (int64_t d = 0; d < dim; ++d) {
      err += (out[d] - src.data()[d]) * (out[d] - src.data()[d]);
      ref += src.data()[d] * src.data()[d];
    }
    const double tol = format == QuantFormat::kF32
                           ? 0.0
                           : (format == QuantFormat::kF16 ? 1e-6 : 5e-4);
    EXPECT_LE(err / ref, tol) << FormatName(format);
  }
  // Quantized entries are strictly smaller than f32 ones.
  QuantizedVector f32 = QuantizedVector::Encode(QuantFormat::kF32,
                                                src.data(), dim);
  QuantizedVector f16 = QuantizedVector::Encode(QuantFormat::kF16,
                                                src.data(), dim);
  QuantizedVector int8 = QuantizedVector::Encode(QuantFormat::kInt8,
                                                 src.data(), dim);
  EXPECT_LT(f16.ApproxBytes(), f32.ApproxBytes());
  EXPECT_LT(int8.ApproxBytes(), f16.ApproxBytes());
}

TEST(QuantFormatTest, NamesParseAndByteMathHolds) {
  QuantFormat f;
  EXPECT_TRUE(ParseFormat("f32", &f));
  EXPECT_EQ(f, QuantFormat::kF32);
  EXPECT_TRUE(ParseFormat("f16", &f));
  EXPECT_EQ(f, QuantFormat::kF16);
  EXPECT_TRUE(ParseFormat("int8", &f));
  EXPECT_EQ(f, QuantFormat::kInt8);
  EXPECT_FALSE(ParseFormat("int4", &f));
  EXPECT_STREQ(FormatName(QuantFormat::kInt8), "int8");

  EXPECT_EQ(BlocksPerRow(32), 1);
  EXPECT_EQ(BlocksPerRow(33), 2);
  // The acceptance ratios at the bench dim: f16 0.5x, int8 0.28125x.
  EXPECT_EQ(PayloadBytesPerRow(QuantFormat::kF32, 32), 128);
  EXPECT_EQ(PayloadBytesPerRow(QuantFormat::kF16, 32), 64);
  EXPECT_EQ(PayloadBytesPerRow(QuantFormat::kInt8, 32), 36);
}

}  // namespace
}  // namespace quant
}  // namespace serve
}  // namespace crossem
