// Core layers: Linear, Embedding, LayerNorm.
#ifndef CROSSEM_NN_LAYERS_H_
#define CROSSEM_NN_LAYERS_H_

#include <vector>

#include "nn/module.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/random.h"

namespace crossem {
namespace nn {

/// Affine map y = x W + b with W of shape [in, out].
class Linear : public Module {
 public:
  /// Xavier-uniform weight init; zero bias. `bias` may be disabled.
  Linear(int64_t in_features, int64_t out_features, Rng* rng,
         bool bias = true);

  /// x: [..., in] -> act([..., out]). When `act` is not kNone the
  /// activation is applied after the bias add — through the fused
  /// BiasActivation kernel when fused kernels are enabled, otherwise as
  /// the composed Add + activation graph (bitwise-identical either way).
  Tensor Forward(const Tensor& x, ops::BiasAct act = ops::BiasAct::kNone) const;

  const Tensor& weight() const { return weight_; }
  const Tensor& bias() const { return bias_; }

 private:
  int64_t in_features_;
  int64_t out_features_;
  Tensor weight_;
  Tensor bias_;  // undefined when bias is disabled
};

/// Lookup table [num_embeddings, dim]; rows gathered by integer id.
class Embedding : public Module {
 public:
  Embedding(int64_t num_embeddings, int64_t dim, Rng* rng,
            float init_stddev = 0.02f);

  /// indices -> [len(indices), dim].
  Tensor Forward(const std::vector<int64_t>& indices) const;

  const Tensor& table() const { return table_; }
  int64_t num_embeddings() const { return num_embeddings_; }
  int64_t dim() const { return dim_; }

 private:
  int64_t num_embeddings_;
  int64_t dim_;
  Tensor table_;
};

/// Layer normalization over the last dimension, with learned gain/bias.
class LayerNorm : public Module {
 public:
  explicit LayerNorm(int64_t dim, float eps = 1e-5f);

  Tensor Forward(const Tensor& x) const;

 private:
  int64_t dim_;
  float eps_;
  Tensor gamma_;
  Tensor beta_;
};

}  // namespace nn
}  // namespace crossem

#endif  // CROSSEM_NN_LAYERS_H_
