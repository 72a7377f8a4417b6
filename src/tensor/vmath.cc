// Eight-lane port of glibc 2.36's fdlibm float tanh/expm1, and the GELU
// kernels built on it (contract in vmath.h, rationale in DESIGN.md §12).
//
// This file is compiled with -ffp-contract=off (src/tensor/CMakeLists.txt):
// the x86-64-v3 clone would otherwise fuse multiply-adds, which round once
// where tanhf and the scalar GELU formulas round twice.
#include "tensor/vmath.h"

#include <bit>
#include <cstring>

#include "util/target_clones.h"

namespace crossem {
namespace vmath {

namespace {

constexpr int64_t kLanes = 8;
using F8 = float __attribute__((vector_size(kLanes * sizeof(float))));
using I8 = int32_t __attribute__((vector_size(kLanes * sizeof(int32_t))));
using U8 = uint32_t __attribute__((vector_size(kLanes * sizeof(uint32_t))));

// Helpers are forced inline so the x86-64-v3 clone gets them as AVX2 code.
#define VMATH_INLINE [[gnu::always_inline]] inline

VMATH_INLINE F8 Splat(float v) { return F8{} + v; }
VMATH_INLINE I8 AsInt(F8 v) { return std::bit_cast<I8>(v); }
VMATH_INLINE U8 AsUint(F8 v) { return std::bit_cast<U8>(v); }
VMATH_INLINE F8 AsFloat(U8 v) { return std::bit_cast<F8>(v); }

VMATH_INLINE bool AnyLane(I8 mask) {
  uint64_t words[4] = {};
  std::memcpy(words, &mask, sizeof words);
  return (words[0] | words[1] | words[2] | words[3]) != 0;
}

VMATH_INLINE F8 Load(const float* p) {
  F8 v = {};
  std::memcpy(&v, p, sizeof v);
  return v;
}

VMATH_INLINE void Store(float* p, F8 v) { std::memcpy(p, &v, sizeof v); }

/// The first m < 8 floats at p, zero-padded. The spare lanes compute on 0
/// like any other input and are never stored.
VMATH_INLINE F8 LoadTail(const float* p, int64_t m) {
  F8 v = {};
  std::memcpy(&v, p, static_cast<size_t>(m) * sizeof(float));
  return v;
}

VMATH_INLINE void StoreTail(float* p, F8 v, int64_t m) {
  std::memcpy(p, &v, static_cast<size_t>(m) * sizeof(float));
}

// s_expm1f.c's constants, by bit pattern.
constexpr float kLn2Hi = std::bit_cast<float>(0x3f317180u);
constexpr float kLn2Lo = std::bit_cast<float>(0x3717f7d1u);
constexpr float kInvLn2 = std::bit_cast<float>(0x3fb8aa3bu);
constexpr float kQ1 = std::bit_cast<float>(0xbd088889u);
constexpr float kQ2 = std::bit_cast<float>(0x3ad00d01u);
constexpr float kQ3 = std::bit_cast<float>(0xb8a670cdu);
constexpr float kQ4 = std::bit_cast<float>(0x36867e54u);
constexpr float kQ5 = std::bit_cast<float>(0xb457edbbu);

/// expm1f(a) for the arguments tanhf passes it: a in [2, 44) or (-2, 0).
/// Every lane evaluates each branch reachable from there and then keeps
/// its own; expm1f's overflow, k == 1 and k == 128 branches are not. Nor
/// is its early return of a for |a| < 2^-25: the k == 0 path rounds to a
/// itself there (VMathTest checks every float).
VMATH_INLINE F8 Expm1(F8 a) {
  const I8 ha = AsInt(a) & 0x7fffffff;
  const I8 neg = AsInt(a) < 0;

  // a = k*ln2 + r, r = hi - lo with correction c, |r| <= ln2/2: k is 0 for
  // |a| <= ln2/2, exactly +-1 below 1.5 ln2, else (int)(a/ln2 +- 0.5).
  // Lanes whose result is discarded (|x| >= 22, inf, NaN) reach here too,
  // so the float->int conversion only ever sees finite values below 2^7.
  F8 kround = kInvLn2 * a + (neg ? Splat(-0.5f) : Splat(0.5f));
  kround = (kround > -128.0f) & (kround < 128.0f) ? kround : Splat(0.0f);
  I8 k = __builtin_convertvector(kround, I8);
  k = ha < 0x3f851592 ? (neg ? I8{} - 1 : I8{} + 1) : k;
  k = ha > 0x3eb17218 ? k : I8{};
  const F8 kf = __builtin_convertvector(k, F8);
  const F8 hi = a - kf * kLn2Hi;  // exact: kLn2Hi has trailing zero bits
  const F8 lo = kf * kLn2Lo;
  const F8 r = hi - lo;
  const F8 c = (hi - r) - lo;

  // expm1(r) on the primary range.
  const F8 hfx = 0.5f * r;
  const F8 hxs = r * hfx;
  const F8 r1 =
      1.0f + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
  const F8 t = 3.0f - r1 * hfx;
  const F8 e = hxs * ((r1 - t) / (6.0f - r * t));

  // Scale back by 2^k: one candidate per branch of s_expm1f.c's tail.
  // Adding k << 23 to a float's bits adds k to its exponent.
  const U8 ku = std::bit_cast<U8>(k);
  const U8 exp_k = ku << 23;
  const F8 two_mk = AsFloat((0x7fu - ku) << 23);  // 2^-k, for 2 <= k <= 56
  const F8 ek = (r * (e - c) - c) - hxs;          // e for k != 0
  const F8 y0 = r - (r * e - hxs);
  const F8 y_m1 = 0.5f * (r - ek) - 0.5f;
  // k <= -2 or k > 56.
  const F8 y_far = AsFloat(AsUint(1.0f - (ek - r)) + exp_k) - 1.0f;
  // 2 <= k < 23; 1 - 2^-k is exact there (s_expm1f.c builds it from bits).
  const F8 y_lo = AsFloat(AsUint((1.0f - two_mk) - (ek - r)) + exp_k);
  // 23 <= k <= 56.
  const F8 y_hi = AsFloat(AsUint((r - (ek + two_mk)) + 1.0f) + exp_k);

  F8 y = k < 23 ? y_lo : y_hi;
  y = (k <= -2) | (k > 56) ? y_far : y;
  y = k == -1 ? y_m1 : y;
  return k == 0 ? y0 : y;
}

/// tanhf, lane by lane (s_tanhf.c). Its early return of x for
/// |x| < 2^-55 needs no lane of its own: -t/(t+2) with t = -2|x| is |x|
/// exactly there, and flipping the sign bit restores -0.
VMATH_INLINE F8 Tanh8(F8 x) {
  const I8 ix = AsInt(x) & 0x7fffffff;
  const F8 ax = std::bit_cast<F8>(ix);
  const I8 big = ix >= 0x3f800000;  // |x| >= 1
  const F8 t = Expm1(big ? 2.0f * ax : -2.0f * ax);
  // 1 - 2/(t+2) for |x| >= 1, -t/(t+2) below: one division serves both.
  const F8 q = (big ? Splat(2.0f) : -t) / (t + 2.0f);
  F8 z = big ? 1.0f - q : q;
  z = ix >= 0x41b00000 ? Splat(1.0f) : z;  // |x| >= 22, inf
  // tanh is odd and z > 0, so flipping the sign bit is s_tanhf.c's -z.
  z = AsFloat(AsUint(z) ^ (AsUint(x) & 0x80000000u));
  return ix > 0x7f800000 ? x + x : z;  // NaN, quieted
}

// GELU, tanh approximation. Keep every expression's operation order:
// trained numbers depend on these exact roundings, and vmath_test checks
// them against the scalar formulas with std::tanh.
constexpr float kGeluC = 0.7978845608f;  // sqrt(2/pi)
constexpr float kGeluA = 0.044715f;

VMATH_INLINE F8 GeluFwdArg(F8 x) { return kGeluC * (x + kGeluA * x * x * x); }

VMATH_INLINE F8 GeluBwdArg(F8 x) { return kGeluC * (x + kGeluA * (x * x * x)); }

VMATH_INLINE F8 GeluFromTanh(F8 x, F8 t) { return 0.5f * x * (1.0f + t); }

/// dGELU/dx given t = tanh(GeluBwdArg(x)).
VMATH_INLINE F8 GeluDerivativeFromTanh(F8 x, F8 t) {
  const F8 sech2 = 1.0f - t * t;
  return 0.5f * (1.0f + t) +
         0.5f * x * sech2 * kGeluC * (1.0f + 3.0f * kGeluA * x * x);
}

VMATH_INLINE F8 Gelu8(F8 x) { return GeluFromTanh(x, Tanh8(GeluFwdArg(x))); }

VMATH_INLINE F8 GeluDerivative8(F8 x) {
  return GeluDerivativeFromTanh(x, Tanh8(GeluBwdArg(x)));
}

VMATH_INLINE void GeluWithDerivative8(F8 x, F8* y, F8* dydx) {
  const F8 fwd_arg = GeluFwdArg(x);
  const F8 bwd_arg = GeluBwdArg(x);
  const F8 t = Tanh8(fwd_arg);
  *y = GeluFromTanh(x, t);
  // tanh(bwd_arg) is t in every lane whose arguments have equal bits; a
  // group with a lane that differs takes the second tanh for all eight.
  const F8 tb = AnyLane(AsInt(fwd_arg) != AsInt(bwd_arg)) ? Tanh8(bwd_arg) : t;
  *dydx = GeluDerivativeFromTanh(x, tb);
}

}  // namespace

CROSSEM_TARGET_CLONES
void Tanh(const float* x, float* y, int64_t n) {
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) Store(y + i, Tanh8(Load(x + i)));
  if (i < n) StoreTail(y + i, Tanh8(LoadTail(x + i, n - i)), n - i);
}

CROSSEM_TARGET_CLONES
void Gelu(const float* x, float* y, int64_t n) {
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) Store(y + i, Gelu8(Load(x + i)));
  if (i < n) StoreTail(y + i, Gelu8(LoadTail(x + i, n - i)), n - i);
}

CROSSEM_TARGET_CLONES
void GeluDerivative(const float* x, float* dydx, int64_t n) {
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    Store(dydx + i, GeluDerivative8(Load(x + i)));
  }
  if (i < n) {
    StoreTail(dydx + i, GeluDerivative8(LoadTail(x + i, n - i)), n - i);
  }
}

CROSSEM_TARGET_CLONES
void GeluWithDerivative(const float* x, float* y, float* dydx, int64_t n) {
  F8 yv = {};
  F8 dv = {};
  int64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    GeluWithDerivative8(Load(x + i), &yv, &dv);
    Store(y + i, yv);
    Store(dydx + i, dv);
  }
  if (i < n) {
    GeluWithDerivative8(LoadTail(x + i, n - i), &yv, &dv);
    StoreTail(y + i, yv, n - i);
    StoreTail(dydx + i, dv, n - i);
  }
}

#undef VMATH_INLINE

}  // namespace vmath
}  // namespace crossem
