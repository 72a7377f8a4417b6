// Miniature CLIP: a dual-encoder multi-modal model (paper Sec. II-B).
//
// Architecture mirrors the real CLIP at reduced scale:
//   - TextEncoder: token + positional embeddings -> Transformer ->
//     projection of the [CLS] position into the joint space.
//   - ImageEncoder: linear patch embedding + learned [CLS] patch ->
//     Transformer -> projection into the joint space.
//   - learned log-temperature, symmetric InfoNCE contrastive loss
//     (paper Eq. 2-3), and the matching probability of Eq. 4.
//
// Images are *bags of patch features* ([P, patch_dim] tensors): the paper
// itself consumes patch features everywhere (ViT patches in CLIP, ResNet
// patches in PCP), so pixel decoding is out of scope (see DESIGN.md).
//
// The text encoder supports a second entry point taking pre-built input
// embeddings (ForwardFromEmbeddings) — the "feature-based text encoder"
// of paper Fig. 4(b) that the soft prompt injects into.
#ifndef CROSSEM_CLIP_CLIP_H_
#define CROSSEM_CLIP_CLIP_H_

#include <cstdint>
#include <vector>

#include "nn/attention.h"
#include "nn/layers.h"
#include "nn/module.h"
#include "tensor/tensor.h"
#include "text/tokenizer.h"
#include "util/random.h"

namespace crossem {
namespace clip {

/// Model hyper-parameters (defaults are the repo's CPU-scale CLIP).
struct ClipConfig {
  int64_t vocab_size = 0;      // required
  int64_t text_context = 32;   // max token length (77 in the paper's CLIP)
  int64_t model_dim = 48;      // transformer width (shared by both towers)
  int64_t text_layers = 2;
  int64_t text_heads = 4;
  int64_t image_layers = 2;
  int64_t image_heads = 4;
  int64_t mlp_ratio = 4;
  int64_t patch_dim = 16;      // input patch feature dimension
  int64_t max_patches = 32;    // max patches per image (for positions)
  int64_t embed_dim = 32;      // joint embedding space
  float init_temperature = 0.07f;  // tau in Eq. 2-4
};

/// Transformer text tower.
class TextEncoder : public nn::Module {
 public:
  TextEncoder(const ClipConfig& config, Rng* rng);

  /// Token + positional embeddings for a padded batch: [B, T, D].
  Tensor EmbedTokens(const std::vector<std::vector<int64_t>>& batch) const;

  /// Padding mask (1 = real token, 0 = [PAD]) for a padded batch: [B, T].
  Tensor PaddingMask(const std::vector<std::vector<int64_t>>& batch) const;

  /// Full pass over padded token-id rows -> joint embeddings [B, embed_dim]
  /// (L2-normalized).
  Tensor Forward(const std::vector<std::vector<int64_t>>& batch) const;

  /// Feature-based entry (paper Fig. 4b): caller supplies the input
  /// embedding sequence [B, T, D] (e.g. label tokens + injected soft
  /// prompt vectors) and a [B, T] mask. Position embeddings are added
  /// here. Returns L2-normalized [B, embed_dim].
  Tensor ForwardFromEmbeddings(const Tensor& input_embeddings,
                               const Tensor& mask) const;

  int64_t context_length() const { return config_.text_context; }
  int64_t model_dim() const { return config_.model_dim; }
  const nn::Embedding& token_embedding() const { return token_embedding_; }

 private:
  ClipConfig config_;
  nn::Embedding token_embedding_;
  Tensor positional_;  // [text_context, model_dim]
  nn::TransformerEncoder encoder_;
  nn::Linear projection_;
};

/// Transformer image tower over patch features.
class ImageEncoder : public nn::Module {
 public:
  ImageEncoder(const ClipConfig& config, Rng* rng);

  /// patches: [B, P, patch_dim] -> L2-normalized [B, embed_dim].
  Tensor Forward(const Tensor& patches) const;

 private:
  ClipConfig config_;
  nn::Linear patch_embedding_;
  Tensor cls_token_;    // [1, 1, model_dim]
  nn::TransformerEncoder encoder_;
  nn::Linear projection_;
};

/// The full dual-encoder model with a learned temperature.
class ClipModel : public nn::Module {
 public:
  ClipModel(const ClipConfig& config, Rng* rng);

  TextEncoder& text() { return text_; }
  const TextEncoder& text() const { return text_; }
  ImageEncoder& image() { return image_; }
  const ImageEncoder& image() const { return image_; }

  /// Current temperature tau (always positive; exp of the learned log).
  Tensor Temperature() const;

  /// Cosine-similarity matrix [Nt, Ni] of already-normalized embeddings.
  static Tensor SimilarityMatrix(const Tensor& text_emb,
                                 const Tensor& image_emb);

  /// Symmetric InfoNCE over a batch where text i matches image i
  /// (paper Eq. 2-3): averages the text->image and image->text
  /// cross-entropies at temperature tau.
  Tensor ContrastiveLoss(const Tensor& text_emb, const Tensor& image_emb) const;

  /// Contrastive loss with explicit positive assignments: text row i's
  /// positive image is `targets[i]` (used by CrossEM's pseudo-labeled
  /// tuning where positives are top-similarity pairs).
  Tensor ContrastiveLoss(const Tensor& text_emb, const Tensor& image_emb,
                         const std::vector<int64_t>& targets) const;

  /// Matching probability p(v, I) of Eq. 4 for every (row, column):
  /// softmax over images of tau^{-1}-scaled cosine similarities.
  /// Returns [Nt, Ni]; computed without gradient tracking.
  Tensor MatchingProbability(const Tensor& text_emb,
                             const Tensor& image_emb) const;

  const ClipConfig& config() const { return config_; }

 private:
  ClipConfig config_;
  TextEncoder text_;
  ImageEncoder image_;
  Tensor log_temperature_;  // scalar parameter
};

}  // namespace clip
}  // namespace crossem

#endif  // CROSSEM_CLIP_CLIP_H_
