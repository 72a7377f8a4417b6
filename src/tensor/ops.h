// Differentiable tensor operations.
//
// Every function here builds the forward result and, when gradients are
// enabled and any input requires them, records an autograd node whose
// backward closure accumulates into the inputs' grad buffers.
//
// Broadcasting follows NumPy right-aligned semantics: trailing dimensions
// must match or be 1 (rank-0 scalars broadcast to anything). Backward
// sum-reduces gradients over broadcast dimensions.
#ifndef CROSSEM_TENSOR_OPS_H_
#define CROSSEM_TENSOR_OPS_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace crossem {
namespace ops {

// -- Shape utilities ----------------------------------------------------------

/// NumPy-style broadcast of two shapes; CHECK-fails if incompatible.
Shape BroadcastShapes(const Shape& a, const Shape& b);

/// Identity matrix of size [n, n].
Tensor Eye(int64_t n);

// -- Elementwise binary (broadcasting) -----------------------------------------

Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
Tensor Div(const Tensor& a, const Tensor& b);

/// Convenience scalar forms (the scalar is a constant, not differentiated).
Tensor AddScalar(const Tensor& a, float s);
Tensor MulScalar(const Tensor& a, float s);

// -- Elementwise unary ----------------------------------------------------------

Tensor Neg(const Tensor& a);
Tensor Exp(const Tensor& a);
Tensor Log(const Tensor& a);   // natural log; input must be positive
Tensor Sqrt(const Tensor& a);
Tensor Abs(const Tensor& a);
Tensor Sin(const Tensor& a);
Tensor Cos(const Tensor& a);
Tensor Relu(const Tensor& a);
Tensor Gelu(const Tensor& a);  // tanh approximation
Tensor Tanh(const Tensor& a);
Tensor Sigmoid(const Tensor& a);
/// Elementwise a^p for constant p (a must be positive unless p is integral).
Tensor Pow(const Tensor& a, float p);

// -- Matrix multiply --------------------------------------------------------------

/// Which inner GEMM kernel MatMul uses. kBlocked is the production
/// cache-blocked/register-tiled kernel; kReference is the original scalar
/// triple loop, kept selectable so benchmarks can measure composite ops
/// (e.g. PCP proximity) against the pre-optimization baseline and tests
/// can cross-check numerics.
enum class GemmKernel { kBlocked, kReference };

/// Selects the GEMM kernel process-wide (not thread-safe; call only from
/// single-threaded setup code in benchmarks/tests).
void SetGemmKernel(GemmKernel kernel);
GemmKernel GetGemmKernel();

/// 2D x 2D, batched ND x ND with identical leading dims, or ND x 2D
/// (the 2D right-hand side is shared across the batch).
Tensor MatMul(const Tensor& a, const Tensor& b);

/// A @ B^T with b given in its natural [n, k] layout (2D, shared across
/// a's batch dims). Equivalent to MatMul(a, Transpose(b, 0, 1)) — bitwise,
/// since the GEMM pack produces exactly the materialized transpose — but
/// skips the transpose tensor entirely and the backward dA GEMM reads b
/// directly with no packing. This is the similarity-matrix layout
/// (text [V, E] x image [I, E]^T).
Tensor MatMulTransB(const Tensor& a, const Tensor& b);

/// Swaps dimensions d0 and d1 (copying; result is contiguous).
Tensor Transpose(const Tensor& a, int64_t d0, int64_t d1);

/// Reshapes to `shape`; one dimension may be -1 (inferred).
Tensor Reshape(const Tensor& a, Shape shape);

// -- Reductions --------------------------------------------------------------------

Tensor Sum(const Tensor& a);                              // -> scalar
Tensor Sum(const Tensor& a, int64_t dim, bool keepdim);   // reduce one dim
Tensor Mean(const Tensor& a);                             // -> scalar
Tensor Mean(const Tensor& a, int64_t dim, bool keepdim);  // reduce one dim

/// Index of the max element along `dim` (not differentiable).
std::vector<int64_t> ArgMax(const Tensor& a, int64_t dim);

// -- Normalization / activations over the last dimension -----------------------------

Tensor Softmax(const Tensor& a);      // over last dim, numerically stable
Tensor LogSoftmax(const Tensor& a);   // over last dim, numerically stable
/// x / max(||x||_2, eps) row-wise over the last dimension.
Tensor L2Normalize(const Tensor& a, float eps = 1e-8f);

// -- Fused kernels ------------------------------------------------------------------
//
// Single-node replacements for the hot composed-op subgraphs in src/nn.
// Each kernel replicates the composed graph's per-element arithmetic and
// accumulation order exactly, so switching between fused and reference
// paths is bitwise-invisible (the determinism tests enforce this); the win
// is graph overhead — one tape node and zero intermediate tensors instead
// of ~10 nodes and ~8 temporaries per call.

/// Whether the nn layers route through the fused kernels (kFused, default)
/// or the original composed-op graphs (kReference). Mirrors SetGemmKernel:
/// process-wide, set only from single-threaded setup code. The initial
/// value honors CROSSEM_FUSED_KERNELS ("0"/"off"/"reference" disables).
enum class FusedKernels { kFused, kReference };
void SetFusedKernels(FusedKernels mode);
FusedKernels GetFusedKernels();

/// Activation fused into BiasActivation after the bias add.
enum class BiasAct { kNone, kRelu, kGelu };

/// Fused LayerNorm over the last dimension:
/// gamma * (x - mean) / sqrt(var + eps) + beta, with single-pass row
/// statistics (two saved floats per row instead of seven intermediate
/// tensors on the tape).
Tensor LayerNormFused(const Tensor& x, const Tensor& gamma,
                      const Tensor& beta, float eps);

/// Fused softmax(x * scale [+ mask_bias]) over the last dimension. When
/// `key_padding_mask` ([B, Tk], 1 = valid key) is defined, x must be
/// [B, H, Tq, Tk] and masked keys receive the same -1e9 additive bias the
/// composed attention path builds. The mask is treated as a constant.
Tensor ScaledMaskedSoftmax(const Tensor& x, float scale,
                           const Tensor& key_padding_mask = Tensor());

/// Fused act(x + bias) with bias ([D]) broadcast over the trailing
/// dimension of x ([..., D]).
Tensor BiasActivation(const Tensor& x, const Tensor& bias, BiasAct act);

// -- Structural -------------------------------------------------------------------

/// Concatenates along `dim`; all other dims must match.
Tensor Concat(const std::vector<Tensor>& tensors, int64_t dim);

/// Stacks equal-shaped tensors along a new leading dimension.
Tensor Stack(const std::vector<Tensor>& tensors);

/// Contiguous sub-range [start, end) along `dim`.
Tensor Slice(const Tensor& a, int64_t dim, int64_t start, int64_t end);

/// Gathers rows along dimension 0: out[i] = a[indices[i]].
/// Backward scatter-adds (this is the embedding-lookup primitive).
Tensor IndexSelect(const Tensor& a, const std::vector<int64_t>& indices);

// -- Losses ------------------------------------------------------------------------

/// Mean negative log-likelihood: -mean_i log_probs[i, targets[i]].
/// `log_probs` is [N, C] (typically from LogSoftmax).
Tensor NllLoss(const Tensor& log_probs, const std::vector<int64_t>& targets);

/// Dropout with keep-prob (1-p); identity when !training or p == 0.
Tensor Dropout(const Tensor& a, float p, bool training, Rng* rng);

}  // namespace ops
}  // namespace crossem

#endif  // CROSSEM_TENSOR_OPS_H_
