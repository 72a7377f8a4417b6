// Fused kernels vs their composed-op reference graphs. The contract is
// stronger than "close": each fused kernel replays the composed graph's
// per-element arithmetic in the same order, so forward values and every
// gradient must match bitwise (which trivially satisfies the 1e-5 budget
// the training loop actually needs).
#include <cmath>
#include <memory>
#include <vector>

#include "gtest/gtest.h"
#include "nn/attention.h"
#include "nn/layers.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/memory_tracker.h"
#include "util/random.h"

namespace crossem {
namespace {

void ExpectBitwiseEqual(const Tensor& a, const Tensor& b,
                        const char* what) {
  ASSERT_EQ(a.numel(), b.numel()) << what;
  const float* pa = a.data();
  const float* pb = b.data();
  for (int64_t i = 0; i < a.numel(); ++i) {
    ASSERT_EQ(pa[i], pb[i]) << what << " diverges at " << i;
  }
}

/// Restores the process-wide fused-kernel mode on scope exit.
struct FusedModeGuard {
  ops::FusedKernels prev = ops::GetFusedKernels();
  ~FusedModeGuard() { ops::SetFusedKernels(prev); }
};

Tensor CloneLeaf(const Tensor& src, bool requires_grad) {
  Tensor t = Tensor::FromVector(src.shape(), src.ToVector());
  t.set_requires_grad(requires_grad);
  return t;
}

TEST(FusedOpsTest, LayerNormFusedMatchesComposedForwardAndBackward) {
  Rng rng(11);
  const float eps = 1e-5f;
  Tensor x0 = Tensor::Randn({5, 7, 16}, &rng);
  Tensor g0 = Tensor::Randn({16}, &rng);
  Tensor b0 = Tensor::Randn({16}, &rng);
  Tensor w = Tensor::Randn({5, 7, 16}, &rng);  // upstream grad shaper

  auto composed = [&](const Tensor& x, const Tensor& gamma,
                      const Tensor& beta) {
    Tensor mean = ops::Mean(x, -1, /*keepdim=*/true);
    Tensor centered = ops::Sub(x, mean);
    Tensor var = ops::Mean(ops::Mul(centered, centered), -1, true);
    Tensor inv_std = ops::Pow(ops::AddScalar(var, eps), -0.5f);
    Tensor normalized = ops::Mul(centered, inv_std);
    return ops::Add(ops::Mul(normalized, gamma), beta);
  };

  Tensor xr = CloneLeaf(x0, true);
  Tensor gr = CloneLeaf(g0, true);
  Tensor br = CloneLeaf(b0, true);
  Tensor yr = composed(xr, gr, br);
  ops::Sum(ops::Mul(yr, w.Detach())).Backward();

  Tensor xf = CloneLeaf(x0, true);
  Tensor gf = CloneLeaf(g0, true);
  Tensor bf = CloneLeaf(b0, true);
  Tensor yf = ops::LayerNormFused(xf, gf, bf, eps);
  ops::Sum(ops::Mul(yf, w.Detach())).Backward();

  ExpectBitwiseEqual(yf, yr, "layer_norm forward");
  ExpectBitwiseEqual(xf.grad(), xr.grad(), "layer_norm dx");
  ExpectBitwiseEqual(gf.grad(), gr.grad(), "layer_norm dgamma");
  ExpectBitwiseEqual(bf.grad(), br.grad(), "layer_norm dbeta");
}

TEST(FusedOpsTest, LayerNormFusedFrozenInputStillTrainsGain) {
  Rng rng(12);
  Tensor x0 = Tensor::Randn({4, 8}, &rng);
  Tensor g0 = Tensor::Randn({8}, &rng);
  Tensor b0 = Tensor::Randn({8}, &rng);

  Tensor gr = CloneLeaf(g0, true);
  Tensor br = CloneLeaf(b0, true);
  {
    Tensor x = CloneLeaf(x0, false);
    Tensor mean = ops::Mean(x, -1, true);
    Tensor centered = ops::Sub(x, mean);
    Tensor var = ops::Mean(ops::Mul(centered, centered), -1, true);
    Tensor inv_std = ops::Pow(ops::AddScalar(var, 1e-5f), -0.5f);
    ops::Sum(ops::Add(ops::Mul(ops::Mul(centered, inv_std), gr), br))
        .Backward();
  }
  Tensor gf = CloneLeaf(g0, true);
  Tensor bf = CloneLeaf(b0, true);
  Tensor xf = CloneLeaf(x0, false);
  ops::Sum(ops::LayerNormFused(xf, gf, bf, 1e-5f)).Backward();

  ExpectBitwiseEqual(gf.grad(), gr.grad(), "frozen-x dgamma");
  ExpectBitwiseEqual(bf.grad(), br.grad(), "frozen-x dbeta");
  EXPECT_FALSE(xf.grad().defined());
}

TEST(FusedOpsTest, ScaledSoftmaxMatchesComposedNoMask) {
  Rng rng(13);
  const float scale = 0.25f;
  Tensor x0 = Tensor::Randn({6, 9}, &rng);
  Tensor w = Tensor::Randn({6, 9}, &rng);

  Tensor xr = CloneLeaf(x0, true);
  Tensor yr = ops::Softmax(ops::MulScalar(xr, scale));
  ops::Sum(ops::Mul(yr, w.Detach())).Backward();

  Tensor xf = CloneLeaf(x0, true);
  Tensor yf = ops::ScaledMaskedSoftmax(xf, scale);
  ops::Sum(ops::Mul(yf, w.Detach())).Backward();

  ExpectBitwiseEqual(yf, yr, "scaled softmax forward");
  ExpectBitwiseEqual(xf.grad(), xr.grad(), "scaled softmax dx");
}

TEST(FusedOpsTest, ScaledMaskedSoftmaxMatchesComposedWithMask) {
  Rng rng(14);
  const float scale = 1.0f / std::sqrt(4.0f);
  Tensor x0 = Tensor::Randn({2, 3, 4, 6}, &rng);
  Tensor mask = Tensor::Ones({2, 6});
  float* mp = mask.data();
  mp[4] = 0.0f;  // batch 0 pads keys 4,5
  mp[5] = 0.0f;
  mp[6 + 5] = 0.0f;  // batch 1 pads key 5
  Tensor w = Tensor::Randn({2, 3, 4, 6}, &rng);

  Tensor xr = CloneLeaf(x0, true);
  Tensor sr = ops::MulScalar(xr, scale);
  Tensor bias = ops::MulScalar(ops::AddScalar(mask.Detach(), -1.0f), 1e9f);
  bias = ops::Reshape(bias, {2, 1, 1, 6});
  Tensor yr = ops::Softmax(ops::Add(sr, bias));
  ops::Sum(ops::Mul(yr, w.Detach())).Backward();

  Tensor xf = CloneLeaf(x0, true);
  Tensor yf = ops::ScaledMaskedSoftmax(xf, scale, mask);
  ops::Sum(ops::Mul(yf, w.Detach())).Backward();

  ExpectBitwiseEqual(yf, yr, "masked softmax forward");
  ExpectBitwiseEqual(xf.grad(), xr.grad(), "masked softmax dx");
  // Masked keys carry (numerically) zero attention.
  for (int64_t h = 0; h < 3; ++h) {
    for (int64_t q = 0; q < 4; ++q) {
      const int64_t row = ((0 * 3 + h) * 4 + q) * 6;
      EXPECT_NEAR(yf.at(row + 4), 0.0f, 1e-12f);
      EXPECT_NEAR(yf.at(row + 5), 0.0f, 1e-12f);
    }
  }
}

TEST(FusedOpsTest, BiasActivationMatchesComposedAllActivations) {
  // Large enough that, for some GELU inputs, the forward's and the
  // derivative's tanh arguments round apart: a kernel that fed the
  // forward's tanh to every derivative would diverge on dx and dbias.
  // 63 x 129 elements is not a multiple of the kernels' 8 lanes, so both
  // the row-by-row fused path and the whole-tensor composed ops::Gelu end
  // in a partial group.
  Rng rng(15);
  Tensor x0 = Tensor::Randn({63, 129}, &rng);
  Tensor b0 = Tensor::Randn({129}, &rng);
  Tensor w = Tensor::Randn({63, 129}, &rng);
  const int64_t out_bytes = x0.numel() * static_cast<int64_t>(sizeof(float));

  // Pre-training (x and bias train), Fit's frozen text tower (only x
  // carries a gradient), and inference.
  enum class Grads { kInputAndBias, kInputOnly, kNoGrad };
  const ops::BiasAct acts[] = {ops::BiasAct::kNone, ops::BiasAct::kRelu,
                               ops::BiasAct::kGelu};
  for (Grads grads : {Grads::kInputAndBias, Grads::kInputOnly,
                      Grads::kNoGrad}) {
    for (ops::BiasAct act : acts) {
      SCOPED_TRACE(::testing::Message()
                   << "grads " << static_cast<int>(grads) << ", act "
                   << static_cast<int>(act));
      const bool bias_grad = grads == Grads::kInputAndBias;
      std::unique_ptr<NoGradGuard> no_grad;
      if (grads == Grads::kNoGrad) no_grad = std::make_unique<NoGradGuard>();

      Tensor xr = CloneLeaf(x0, true);
      Tensor br = CloneLeaf(b0, bias_grad);
      Tensor yr = ops::Add(xr, br);
      if (act == ops::BiasAct::kRelu) yr = ops::Relu(yr);
      if (act == ops::BiasAct::kGelu) yr = ops::Gelu(yr);

      Tensor xf = CloneLeaf(x0, true);
      Tensor bf = CloneLeaf(b0, bias_grad);
      const int64_t bytes_before = MemoryTracker::Instance().current_bytes();
      Tensor yf = ops::BiasActivation(xf, bf, act);
      const int64_t op_bytes =
          MemoryTracker::Instance().current_bytes() - bytes_before;
      ExpectBitwiseEqual(yf, yr, "bias_act forward");

      // Only a recording GELU saves its derivative beside the output.
      const bool saves = act == ops::BiasAct::kGelu && grads != Grads::kNoGrad;
      EXPECT_EQ(op_bytes, saves ? 2 * out_bytes : out_bytes);
      if (grads == Grads::kNoGrad) continue;

      ops::Sum(ops::Mul(yr, w.Detach())).Backward();
      ops::Sum(ops::Mul(yf, w.Detach())).Backward();
      ExpectBitwiseEqual(xf.grad(), xr.grad(), "bias_act dx");
      if (bias_grad) {
        ExpectBitwiseEqual(bf.grad(), br.grad(), "bias_act dbias");
      } else {
        EXPECT_FALSE(bf.grad().defined());
      }
    }
  }
}

// The nn layers must produce identical values whichever path the toggle
// selects — this is what lets CROSSEM_FUSED_KERNELS flip a trained run
// without changing its numbers.
TEST(FusedOpsTest, AttentionBlockTogglesBitwiseInvisibly) {
  FusedModeGuard guard;
  Rng rng(16);
  nn::TransformerBlock block(16, 2, 32, &rng);
  Tensor x = Tensor::Randn({2, 5, 16}, &rng);
  Tensor mask = Tensor::Ones({2, 5});
  mask.data()[5 + 4] = 0.0f;  // batch 1 pads its last position

  ops::SetFusedKernels(ops::FusedKernels::kReference);
  Tensor yr;
  {
    NoGradGuard no_grad;
    yr = block.Forward(x, mask);
  }
  ops::SetFusedKernels(ops::FusedKernels::kFused);
  Tensor yf;
  {
    NoGradGuard no_grad;
    yf = block.Forward(x, mask);
  }
  ExpectBitwiseEqual(yf, yr, "transformer block fused-vs-reference");
}

TEST(FusedOpsTest, MatMulTransBMatchesTransposedMatMul) {
  Rng rng(17);
  Tensor a0 = Tensor::Randn({7, 12}, &rng);
  Tensor b0 = Tensor::Randn({9, 12}, &rng);  // natural [n, k] layout
  Tensor w = Tensor::Randn({7, 9}, &rng);

  Tensor ar = CloneLeaf(a0, true);
  Tensor br = CloneLeaf(b0, true);
  Tensor yr = ops::MatMul(ar, ops::Transpose(br, 0, 1));
  ops::Sum(ops::Mul(yr, w.Detach())).Backward();

  Tensor af = CloneLeaf(a0, true);
  Tensor bf = CloneLeaf(b0, true);
  Tensor yf = ops::MatMulTransB(af, bf);
  ops::Sum(ops::Mul(yf, w.Detach())).Backward();

  ExpectBitwiseEqual(yf, yr, "matmul_trans_b forward");
  ExpectBitwiseEqual(af.grad(), ar.grad(), "matmul_trans_b dA");
  ExpectBitwiseEqual(bf.grad(), br.grad(), "matmul_trans_b dB");
}

}  // namespace
}  // namespace crossem
