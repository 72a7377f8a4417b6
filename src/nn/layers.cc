#include "nn/layers.h"

#include <cmath>

#include "tensor/ops.h"
#include "util/logging.h"

namespace crossem {
namespace nn {

Linear::Linear(int64_t in_features, int64_t out_features, Rng* rng, bool bias)
    : in_features_(in_features), out_features_(out_features) {
  CROSSEM_CHECK_GT(in_features, 0);
  CROSSEM_CHECK_GT(out_features, 0);
  const float bound =
      std::sqrt(6.0f / static_cast<float>(in_features + out_features));
  weight_ = RegisterParameter(
      "weight",
      Tensor::Rand({in_features, out_features}, rng, -bound, bound));
  if (bias) {
    bias_ = RegisterParameter("bias", Tensor::Zeros({out_features}));
  }
}

Tensor Linear::Forward(const Tensor& x, ops::BiasAct act) const {
  CROSSEM_CHECK_EQ(x.size(-1), in_features_);
  Tensor y = ops::MatMul(x, weight_);
  if (bias_.defined() && ops::GetFusedKernels() == ops::FusedKernels::kFused) {
    return ops::BiasActivation(y, bias_, act);
  }
  if (bias_.defined()) y = ops::Add(y, bias_);
  switch (act) {
    case ops::BiasAct::kNone:
      return y;
    case ops::BiasAct::kRelu:
      return ops::Relu(y);
    case ops::BiasAct::kGelu:
      return ops::Gelu(y);
  }
  return y;
}

Embedding::Embedding(int64_t num_embeddings, int64_t dim, Rng* rng,
                     float init_stddev)
    : num_embeddings_(num_embeddings), dim_(dim) {
  CROSSEM_CHECK_GT(num_embeddings, 0);
  CROSSEM_CHECK_GT(dim, 0);
  table_ = RegisterParameter(
      "table", Tensor::Randn({num_embeddings, dim}, rng, init_stddev));
}

Tensor Embedding::Forward(const std::vector<int64_t>& indices) const {
  return ops::IndexSelect(table_, indices);
}

LayerNorm::LayerNorm(int64_t dim, float eps) : dim_(dim), eps_(eps) {
  gamma_ = RegisterParameter("gamma", Tensor::Ones({dim}));
  beta_ = RegisterParameter("beta", Tensor::Zeros({dim}));
}

Tensor LayerNorm::Forward(const Tensor& x) const {
  CROSSEM_CHECK_EQ(x.size(-1), dim_);
  if (ops::GetFusedKernels() == ops::FusedKernels::kFused) {
    return ops::LayerNormFused(x, gamma_, beta_, eps_);
  }
  Tensor mean = ops::Mean(x, -1, /*keepdim=*/true);
  Tensor centered = ops::Sub(x, mean);
  Tensor var = ops::Mean(ops::Mul(centered, centered), -1, /*keepdim=*/true);
  Tensor inv_std = ops::Pow(ops::AddScalar(var, eps_), -0.5f);
  Tensor normalized = ops::Mul(centered, inv_std);
  return ops::Add(ops::Mul(normalized, gamma_), beta_);
}

}  // namespace nn
}  // namespace crossem
