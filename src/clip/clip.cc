#include "clip/clip.h"

#include <cmath>

#include "tensor/ops.h"
#include "util/logging.h"

namespace crossem {
namespace clip {

TextEncoder::TextEncoder(const ClipConfig& config, Rng* rng)
    : config_(config),
      token_embedding_(config.vocab_size, config.model_dim, rng),
      encoder_(config.text_layers, config.model_dim, config.text_heads,
               config.mlp_ratio * config.model_dim, rng),
      projection_(config.model_dim, config.embed_dim, rng) {
  CROSSEM_CHECK_GT(config.vocab_size, 0);
  positional_ = RegisterParameter(
      "positional",
      Tensor::Randn({config.text_context, config.model_dim}, rng, 0.02f));
  RegisterModule("token_embedding", &token_embedding_);
  RegisterModule("encoder", &encoder_);
  RegisterModule("projection", &projection_);
}

Tensor TextEncoder::EmbedTokens(
    const std::vector<std::vector<int64_t>>& batch) const {
  CROSSEM_CHECK(!batch.empty());
  const int64_t t = static_cast<int64_t>(batch[0].size());
  CROSSEM_CHECK_LE(t, config_.text_context);
  std::vector<int64_t> flat;
  flat.reserve(batch.size() * static_cast<size_t>(t));
  for (const auto& row : batch) {
    CROSSEM_CHECK_EQ(static_cast<int64_t>(row.size()), t)
        << "token batch rows must be padded to equal length";
    flat.insert(flat.end(), row.begin(), row.end());
  }
  const int64_t b = static_cast<int64_t>(batch.size());
  Tensor tok = token_embedding_.Forward(flat);          // [B*T, D]
  tok = ops::Reshape(tok, {b, t, config_.model_dim});
  Tensor pos = ops::Slice(positional_, 0, 0, t);        // [T, D]
  return ops::Add(tok, pos);                            // broadcast over B
}

Tensor TextEncoder::PaddingMask(
    const std::vector<std::vector<int64_t>>& batch) const {
  const int64_t b = static_cast<int64_t>(batch.size());
  const int64_t t = static_cast<int64_t>(batch[0].size());
  Tensor mask = Tensor::Zeros({b, t});
  float* m = mask.data();
  for (int64_t i = 0; i < b; ++i) {
    for (int64_t j = 0; j < t; ++j) {
      if (batch[static_cast<size_t>(i)][static_cast<size_t>(j)] !=
          text::Vocabulary::kPad) {
        m[i * t + j] = 1.0f;
      }
    }
  }
  return mask;
}

Tensor TextEncoder::Forward(
    const std::vector<std::vector<int64_t>>& batch) const {
  Tensor x = EmbedTokens(batch);
  Tensor mask = PaddingMask(batch);
  Tensor h = encoder_.Forward(x, mask);
  // Sequence-level embedding: head projection of the [CLS] position
  // (paper Sec. III-B, "sequence-based text encoder").
  Tensor cls = ops::Reshape(ops::Slice(h, 1, 0, 1),
                            {h.size(0), config_.model_dim});
  return ops::L2Normalize(projection_.Forward(cls));
}

Tensor TextEncoder::ForwardFromEmbeddings(const Tensor& input_embeddings,
                                          const Tensor& mask) const {
  CROSSEM_CHECK_EQ(input_embeddings.dim(), 3);
  const int64_t t = input_embeddings.size(1);
  CROSSEM_CHECK_LE(t, config_.text_context);
  Tensor pos = ops::Slice(positional_, 0, 0, t);
  Tensor x = ops::Add(input_embeddings, pos);
  Tensor h = encoder_.Forward(x, mask);
  Tensor cls = ops::Reshape(ops::Slice(h, 1, 0, 1),
                            {h.size(0), config_.model_dim});
  return ops::L2Normalize(projection_.Forward(cls));
}

ImageEncoder::ImageEncoder(const ClipConfig& config, Rng* rng)
    : config_(config),
      patch_embedding_(config.patch_dim, config.model_dim, rng),
      encoder_(config.image_layers, config.model_dim, config.image_heads,
               config.mlp_ratio * config.model_dim, rng),
      projection_(config.model_dim, config.embed_dim, rng) {
  cls_token_ = RegisterParameter(
      "cls_token", Tensor::Randn({1, 1, config.model_dim}, rng, 0.02f));
  RegisterModule("patch_embedding", &patch_embedding_);
  RegisterModule("encoder", &encoder_);
  RegisterModule("projection", &projection_);
}

Tensor ImageEncoder::Forward(const Tensor& patches) const {
  CROSSEM_CHECK_EQ(patches.dim(), 3);
  CROSSEM_CHECK_EQ(patches.size(-1), config_.patch_dim);
  const int64_t b = patches.size(0);
  const int64_t p = patches.size(1);
  CROSSEM_CHECK_LE(p, config_.max_patches);

  Tensor x = patch_embedding_.Forward(patches);  // [B, P, D]
  // Prepend the learned [CLS] patch, tiled across the batch by a broadcast
  // add (one op instead of a b-way concat).
  Tensor cls_batch =
      ops::Add(Tensor::Zeros({b, 1, config_.model_dim}), cls_token_);
  // No positional embeddings: images are BAGS of patch features (see
  // DESIGN.md) — the encoder must be permutation-invariant over patches.
  x = ops::Concat({cls_batch, x}, 1);  // [B, P+1, D]
  Tensor h = encoder_.Forward(x);
  Tensor pooled = ops::Reshape(ops::Slice(h, 1, 0, 1),
                               {b, config_.model_dim});
  return ops::L2Normalize(projection_.Forward(pooled));
}

ClipModel::ClipModel(const ClipConfig& config, Rng* rng)
    : config_(config), text_(config, rng), image_(config, rng) {
  CROSSEM_CHECK_GT(config.init_temperature, 0.0f);
  CROSSEM_CHECK_LE(config.init_temperature, 1.0f);
  log_temperature_ = RegisterParameter(
      "log_temperature",
      Tensor::Scalar(std::log(config.init_temperature)));
  RegisterModule("text", &text_);
  RegisterModule("image", &image_);
}

Tensor ClipModel::Temperature() const { return ops::Exp(log_temperature_); }

Tensor ClipModel::SimilarityMatrix(const Tensor& text_emb,
                                   const Tensor& image_emb) {
  CROSSEM_CHECK_EQ(text_emb.dim(), 2);
  CROSSEM_CHECK_EQ(image_emb.dim(), 2);
  CROSSEM_CHECK_EQ(text_emb.size(1), image_emb.size(1));
  // MatMulTransB consumes image_emb in its natural [I, E] layout — bitwise
  // equal to MatMul(text, Transpose(image)) without materializing the
  // transpose (which on small batches used to cost more than the GEMM).
  return ops::MatMulTransB(text_emb, image_emb);
}

Tensor ClipModel::ContrastiveLoss(const Tensor& text_emb,
                                  const Tensor& image_emb) const {
  CROSSEM_CHECK_EQ(text_emb.size(0), image_emb.size(0));
  std::vector<int64_t> diag(static_cast<size_t>(text_emb.size(0)));
  for (size_t i = 0; i < diag.size(); ++i) diag[i] = static_cast<int64_t>(i);
  return ContrastiveLoss(text_emb, image_emb, diag);
}

Tensor ClipModel::ContrastiveLoss(const Tensor& text_emb,
                                  const Tensor& image_emb,
                                  const std::vector<int64_t>& targets) const {
  CROSSEM_CHECK_EQ(static_cast<int64_t>(targets.size()), text_emb.size(0));
  // Logits scaled by 1/tau (Eq. 3's exp(sim)/tau inside the softmax).
  Tensor inv_tau = ops::Div(Tensor::Scalar(1.0f), Temperature());
  Tensor logits = ops::Mul(SimilarityMatrix(text_emb, image_emb), inv_tau);
  // Text -> image direction.
  Tensor loss_t2i = ops::NllLoss(ops::LogSoftmax(logits), targets);
  // Image -> text direction: image targets[i] should pick text row i.
  // Build the inverse assignment where defined; images without an
  // assigned text are skipped by restricting rows.
  Tensor logits_i2t = ops::Transpose(logits, 0, 1);
  std::vector<int64_t> rows;
  std::vector<int64_t> inv_targets;
  for (size_t i = 0; i < targets.size(); ++i) {
    rows.push_back(targets[i]);
    inv_targets.push_back(static_cast<int64_t>(i));
  }
  Tensor picked = ops::IndexSelect(logits_i2t, rows);
  Tensor loss_i2t = ops::NllLoss(ops::LogSoftmax(picked), inv_targets);
  // Average of the two directions (Eq. 2's symmetric l(x_i,x_j)+l(x_j,x_i)).
  return ops::MulScalar(ops::Add(loss_t2i, loss_i2t), 0.5f);
}

Tensor ClipModel::MatchingProbability(const Tensor& text_emb,
                                      const Tensor& image_emb) const {
  NoGradGuard guard;
  Tensor inv_tau = ops::Div(Tensor::Scalar(1.0f), Temperature());
  Tensor logits = ops::Mul(SimilarityMatrix(text_emb, image_emb), inv_tau);
  return ops::Softmax(logits);
}

}  // namespace clip
}  // namespace crossem
