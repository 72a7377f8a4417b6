// vmath's tanh against the libm, and its GELU kernels against the scalar
// GELU formulas. Under glibc's fdlibm tanhf the kernel must equal
// std::tanh bit for bit (it is a port of that code); on any libm it must
// stay within 2 ulp of the correctly rounded tanh.
#include "tensor/vmath.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <vector>

#include "gtest/gtest.h"
#include "util/parallel.h"

// glibc replaced the fdlibm tanhf with CORE-MATH's correctly rounded one
// in 2.41; before that every release ships the code vmath ports.
#if defined(__GLIBC__) && __GLIBC__ == 2 && __GLIBC_MINOR__ < 41
#define CROSSEM_FDLIBM_TANHF 1
#endif

namespace crossem {
namespace {

float FromBits(uint32_t bits) { return std::bit_cast<float>(bits); }
uint32_t ToBits(float f) { return std::bit_cast<uint32_t>(f); }

/// |x| at each branch switch of s_tanhf.c and of the s_expm1f.c paths it
/// takes, as float bits. Both signs are tested.
std::vector<uint32_t> BranchThresholds() {
  const double ln2 = std::log(2.0);
  return {
      0x24000000u,                              // 2^-55: tanh(x) = x below
      0x32800000u,                              // 2^-26: expm1f(a) = a
      ToBits(FromBits(0x3eb17218u) / 2.0f),     // expm1f k = 0 | -1
      ToBits(FromBits(0x3f851592u) / 2.0f),     // expm1f k = -1 | <= -2
      0x3f800000u,                              // 1: expm1f(-2|x|) | (2|x|)
      ToBits(static_cast<float>(11.25 * ln2)),  // expm1f k = 22 | 23
      ToBits(static_cast<float>(28.25 * ln2)),  // expm1f k = 56 | 57
      0x41b00000u,                              // 22: tanh = +-1 above
      0x7f800000u,                              // inf, NaN above
  };
}

/// A stride sweep over all 2^32 float bit patterns, +-4096-ulp windows
/// around every branch threshold, and the special values.
std::vector<float> SweepInputs() {
  std::vector<float> xs;
  for (uint64_t bits = 0; bits < (uint64_t{1} << 32); bits += 4099) {
    xs.push_back(FromBits(static_cast<uint32_t>(bits)));
  }
  for (uint32_t t : BranchThresholds()) {
    for (uint32_t sign : {0u, 0x80000000u}) {
      for (int64_t d = -4096; d <= 4096; ++d) {
        xs.push_back(FromBits(sign | static_cast<uint32_t>(t + d)));
      }
    }
  }
  const float special[] = {0.0f,
                           -0.0f,
                           std::numeric_limits<float>::denorm_min(),
                           -std::numeric_limits<float>::denorm_min(),
                           FromBits(0x007fffffu),  // largest subnormal
                           FromBits(0x807fffffu),
                           std::numeric_limits<float>::min(),
                           std::numeric_limits<float>::max(),
                           -std::numeric_limits<float>::max(),
                           std::numeric_limits<float>::infinity(),
                           -std::numeric_limits<float>::infinity(),
                           std::numeric_limits<float>::quiet_NaN(),
                           -std::numeric_limits<float>::quiet_NaN(),
                           std::numeric_limits<float>::signaling_NaN(),
                           FromBits(0x7fc12345u)};  // NaN with a payload
  xs.insert(xs.end(), std::begin(special), std::end(special));
  return xs;
}

std::vector<float> TanhOf(const std::vector<float>& xs) {
  std::vector<float> ys(xs.size());
  vmath::Tanh(xs.data(), ys.data(), static_cast<int64_t>(xs.size()));
  return ys;
}

/// Distance in units in the last place between two non-NaN floats.
int64_t UlpDistance(float a, float b) {
  auto ordered = [](float f) {
    const uint32_t bits = ToBits(f);
    const int64_t mag = bits & 0x7fffffffu;
    return (bits >> 31) != 0 ? -mag : mag;
  };
  return std::llabs(ordered(a) - ordered(b));
}

// The scalar GELU formulas with std::tanh: the per-element reference whose
// floats the kernels must reproduce.
constexpr float kGeluC = 0.7978845608f;
constexpr float kGeluA = 0.044715f;

float ScalarGelu(float x) {
  return 0.5f * x * (1.0f + std::tanh(kGeluC * (x + kGeluA * x * x * x)));
}

float ScalarGeluDerivative(float x) {
  const float x3 = x * x * x;
  const float t = std::tanh(kGeluC * (x + kGeluA * x3));
  const float sech2 = 1.0f - t * t;
  return 0.5f * (1.0f + t) +
         0.5f * x * sech2 * kGeluC * (1.0f + 3.0f * kGeluA * x * x);
}

TEST(VMathTest, TanhWithinTwoUlpOfCorrectlyRounded) {
  const std::vector<float> xs = SweepInputs();
  const std::vector<float> ys = TanhOf(xs);
  int64_t worst = 0;
  for (size_t i = 0; i < xs.size(); ++i) {
    if (std::isnan(xs[i])) {
      ASSERT_TRUE(std::isnan(ys[i])) << "x bits " << std::hex << ToBits(xs[i]);
      continue;
    }
    const float want =
        static_cast<float>(std::tanh(static_cast<double>(xs[i])));
    const int64_t ulps = UlpDistance(ys[i], want);
    worst = std::max(worst, ulps);
    ASSERT_LE(ulps, 2) << "x bits " << std::hex << ToBits(xs[i]) << " got "
                       << ToBits(ys[i]) << " want " << ToBits(want);
  }
  RecordProperty("max_ulp", static_cast<int>(worst));
}

#ifdef CROSSEM_FDLIBM_TANHF
TEST(VMathTest, TanhMatchesLibmBitForBit) {
  const std::vector<float> xs = SweepInputs();
  const std::vector<float> ys = TanhOf(xs);
  for (size_t i = 0; i < xs.size(); ++i) {
    ASSERT_EQ(ToBits(ys[i]), ToBits(std::tanh(xs[i])))
        << "x bits " << std::hex << ToBits(xs[i]);
  }
}

TEST(VMathTest, GeluMatchesScalarFormulasBitForBit) {
  const std::vector<float> xs = SweepInputs();
  const int64_t n = static_cast<int64_t>(xs.size());
  std::vector<float> y(xs.size()), d(xs.size()), yd(xs.size()), dd(xs.size());
  vmath::Gelu(xs.data(), y.data(), n);
  vmath::GeluDerivative(xs.data(), d.data(), n);
  vmath::GeluWithDerivative(xs.data(), yd.data(), dd.data(), n);
  for (size_t i = 0; i < xs.size(); ++i) {
    const uint32_t want_y = ToBits(ScalarGelu(xs[i]));
    const uint32_t want_d = ToBits(ScalarGeluDerivative(xs[i]));
    SCOPED_TRACE(::testing::Message()
                 << "x bits " << std::hex << ToBits(xs[i]));
    ASSERT_EQ(ToBits(y[i]), want_y);
    ASSERT_EQ(ToBits(d[i]), want_d);
    ASSERT_EQ(ToBits(yd[i]), want_y);
    ASSERT_EQ(ToBits(dd[i]), want_d);
  }
}
#endif  // CROSSEM_FDLIBM_TANHF

// Every length up to four groups plus one: each tail length, with and
// without full groups before it, must give the per-element results, write
// nothing past n, and allow the output to alias the input.
TEST(VMathTest, EveryLengthMatchesPerElementResults) {
  constexpr float kSentinel = 12345.0f;
  std::vector<float> pool;
  for (int i = 0; i < 33; ++i) pool.push_back(-6.0f + 0.37f * i);
  pool[3] = 0.0f;
  pool[7] = FromBits(0x3f851592u) / 2.0f;
  pool[12] = -22.5f;
  pool[20] = std::numeric_limits<float>::quiet_NaN();
  for (int64_t n = 0; n <= 33; ++n) {
    SCOPED_TRACE(::testing::Message() << "n " << n);
    const std::vector<float> x(pool.begin(), pool.begin() + n);
    std::vector<float> t(n + 8, kSentinel), g(n + 8, kSentinel),
        d(n + 8, kSentinel), gd(n + 8, kSentinel), dd(n + 8, kSentinel);
    vmath::Tanh(x.data(), t.data(), n);
    vmath::Gelu(x.data(), g.data(), n);
    vmath::GeluDerivative(x.data(), d.data(), n);
    vmath::GeluWithDerivative(x.data(), gd.data(), dd.data(), n);
    std::vector<float> in_place = x;
    vmath::Gelu(in_place.data(), in_place.data(), n);
    for (int64_t i = 0; i < n; ++i) {
      float t1 = 0.0f, g1 = 0.0f, d1 = 0.0f, gd1 = 0.0f, dd1 = 0.0f;
      vmath::Tanh(&x[i], &t1, 1);
      vmath::Gelu(&x[i], &g1, 1);
      vmath::GeluDerivative(&x[i], &d1, 1);
      vmath::GeluWithDerivative(&x[i], &gd1, &dd1, 1);
      EXPECT_EQ(ToBits(t[i]), ToBits(t1)) << i;
      EXPECT_EQ(ToBits(g[i]), ToBits(g1)) << i;
      EXPECT_EQ(ToBits(d[i]), ToBits(d1)) << i;
      EXPECT_EQ(ToBits(gd[i]), ToBits(g1)) << i;
      EXPECT_EQ(ToBits(dd[i]), ToBits(d1)) << i;
      EXPECT_EQ(ToBits(in_place[i]), ToBits(g1)) << i;
    }
    for (int64_t i = n; i < n + 8; ++i) {
      EXPECT_EQ(t[i], kSentinel);
      EXPECT_EQ(g[i], kSentinel);
      EXPECT_EQ(d[i], kSentinel);
      EXPECT_EQ(gd[i], kSentinel);
      EXPECT_EQ(dd[i], kSentinel);
    }
  }
}

#ifdef CROSSEM_FDLIBM_TANHF
/// Runs `check(bits, count)` over all 2^32 float bit patterns in parallel
/// chunks and returns the total it reports.
template <typename Check>
int64_t CountOverAllFloats(Check check) {
  constexpr int64_t kChunk = int64_t{1} << 20;
  std::atomic<int64_t> bad{0};
  ParallelFor(0, (int64_t{1} << 32) / kChunk, 1, [&](int64_t lo, int64_t hi) {
    std::vector<float> xs(kChunk);
    for (int64_t c = lo; c < hi; ++c) {
      for (int64_t i = 0; i < kChunk; ++i) {
        xs[i] = FromBits(static_cast<uint32_t>(c * kChunk + i));
      }
      bad += check(xs);
    }
  });
  return bad.load();
}

// About half a minute of CPU per kernel; run with
// --gtest_also_run_disabled_tests --gtest_filter=*OnEveryFloat.
TEST(VMathTest, DISABLED_TanhMatchesLibmOnEveryFloat) {
  const int64_t bad = CountOverAllFloats([](const std::vector<float>& xs) {
    const std::vector<float> ys = TanhOf(xs);
    int64_t n = 0;
    for (size_t i = 0; i < xs.size(); ++i) {
      n += ToBits(ys[i]) != ToBits(std::tanh(xs[i]));
    }
    return n;
  });
  EXPECT_EQ(bad, 0);
}

TEST(VMathTest, DISABLED_GeluMatchesScalarFormulasOnEveryFloat) {
  const int64_t bad = CountOverAllFloats([](const std::vector<float>& xs) {
    const int64_t m = static_cast<int64_t>(xs.size());
    std::vector<float> y(xs.size()), d(xs.size());
    vmath::GeluWithDerivative(xs.data(), y.data(), d.data(), m);
    int64_t n = 0;
    for (size_t i = 0; i < xs.size(); ++i) {
      n += ToBits(y[i]) != ToBits(ScalarGelu(xs[i])) ||
           ToBits(d[i]) != ToBits(ScalarGeluDerivative(xs[i]));
    }
    return n;
  });
  EXPECT_EQ(bad, 0);
}
#endif  // CROSSEM_FDLIBM_TANHF

}  // namespace
}  // namespace crossem
