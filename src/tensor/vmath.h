// Vectorized tanh and the GELU kernels built on it.
//
// Tanh is bit-for-bit the fdlibm float tanhf that glibc 2.36 ships
// (sysdeps/ieee754/flt-32/s_tanhf.c and s_expm1f.c), evaluated eight lanes
// at a time: its results equal std::tanh's on that libm and do not depend
// on the host's libm. Every kernel is elementwise: a result depends only
// on its own input, never on n or on where the element sits in the array.
// Each output may alias its input (y == x), not another output. DESIGN.md
// §12 documents the algorithm and why it is exact.
#ifndef CROSSEM_TENSOR_VMATH_H_
#define CROSSEM_TENSOR_VMATH_H_

#include <cstdint>

namespace crossem {
namespace vmath {

/// y[i] = tanh(x[i]) for i in [0, n).
void Tanh(const float* x, float* y, int64_t n);

/// y[i] = GELU(x[i]), tanh approximation:
/// 0.5x(1 + tanh(sqrt(2/pi)(x + 0.044715x^3))).
void Gelu(const float* x, float* y, int64_t n);

/// dydx[i] = dGELU/dx at x[i]. Its tanh argument associates x^3 as
/// (x*x)*x, the forward's as ((0.044715*x)*x)*x.
void GeluDerivative(const float* x, float* dydx, int64_t n);

/// Gelu and GeluDerivative in one pass. The forward's tanh serves the
/// derivative of every 8-lane group whose two tanh arguments round alike
/// (most groups); the others pay for a second tanh.
void GeluWithDerivative(const float* x, float* y, float* dydx, int64_t n);

}  // namespace vmath
}  // namespace crossem

#endif  // CROSSEM_TENSOR_VMATH_H_
