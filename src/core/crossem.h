// CrossEM — the paper's prompt-tuning framework for cross-modal entity
// matching (Sec. II-C, Algorithm 1), and CrossEM+ — its improved variant
// with mini-batch generation, property-based negative sampling, and the
// orthogonal prompt constraint (Sec. IV).
//
// Usage:
//   clip::ClipModel model(...);            // pre-trained (clip/pretrain.h)
//   core::CrossEmOptions opt = core::CrossEmPlusOptions();
//   core::CrossEm matcher(&model, &graph, &tokenizer, opt);
//   matcher.Fit(vertices, images);          // unsupervised prompt tuning
//   auto pairs = matcher.FindMatches(vertices, images);
//
// The matching objective is the matching-probability formulation of
// Eq. 4 (not classification): tuning minimizes the symmetric contrastive
// loss of Eq. 2-3 with positives chosen as the top-similarity pairs of
// each mini-batch, and the image encoder + contrastive head stay frozen.
#ifndef CROSSEM_CORE_CROSSEM_H_
#define CROSSEM_CORE_CROSSEM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "clip/clip.h"
#include "core/hard_prompt.h"
#include "core/negative_sampling.h"
#include "core/pcp.h"
#include "core/soft_prompt.h"
#include "graph/graph.h"
#include "nn/optimizer.h"
#include "tensor/tensor.h"
#include "text/tokenizer.h"
#include "util/random.h"
#include "util/status.h"

namespace crossem {
namespace core {

/// Prompt generation mechanism (paper Sec. III).
enum class PromptMode {
  kBaseline,  // naive "a photo of <label>" (the zero-shot CLIP baseline)
  kHard,      // discrete structure-aware prompt f_pro^h (Sec. III-B)
  kSoft,      // continuous structure-aware prompt f_pro^s (Sec. III-C)
};

struct CrossEmOptions {
  PromptMode prompt_mode = PromptMode::kHard;
  HardPromptOptions hard;
  SoftPromptOptions soft;

  int64_t epochs = 5;
  int64_t batch_vertices = 8;   // N1 of the contrastive batch
  int64_t batch_images = 16;    // N2 of the contrastive batch
  float learning_rate = 2e-3f;
  float grad_clip = 5.0f;
  /// Prompt tuning proper updates only the prompt parameters (the soft
  /// prompt's vertex features, aggregator and injector); the pre-trained
  /// text tower stays frozen. Enabling this additionally fine-tunes the
  /// text encoder (more capacity, but risks drifting the pre-trained
  /// alignment — the fine-tuning/prompt-tuning trade-off of Sec. II-B).
  bool tune_text_encoder = false;

  // -- CrossEM+ optimizations (Sec. IV); all off = plain CrossEM -----------
  bool use_mini_batch_generation = false;   // MBG, Sec. IV-A
  bool use_negative_sampling = false;       // NS, Sec. IV-B
  bool use_orthogonal_constraint = false;   // OPC, Sec. IV-C
  /// Loss mix of Eq. 10 (beta weights the contrastive term).
  float beta = 0.85f;
  PcpOptions pcp;
  NegativeSamplingOptions negative_sampling;

  uint64_t seed = 13;

  // -- Fault tolerance -----------------------------------------------------
  /// When non-empty, Fit writes a resumable training checkpoint (module
  /// parameters + optimizer/RNG state, nn/serialize.h TrainState) here.
  std::string checkpoint_path;
  /// Checkpoint cadence; the final epoch is always checkpointed too.
  int64_t checkpoint_every_epochs = 1;
  /// Resume from `checkpoint_path` if it exists (bit-for-bit: the resumed
  /// run produces exactly the losses and parameters of an uninterrupted
  /// one). A missing checkpoint file starts fresh; a corrupt or
  /// unreadable one fails the Fit.
  bool resume = false;
  /// A batch whose loss or gradients come out non-finite is skipped (no
  /// optimizer step) and counted. If more than this fraction of an
  /// epoch's loss-producing batches go bad, the epoch is rolled back to
  /// its start snapshot and retried with the learning rate halved.
  float max_bad_batch_fraction = 0.5f;
  /// Rollback retries per epoch before Fit gives up with an error.
  int64_t max_epoch_retries = 2;

  // -- Observability -------------------------------------------------------
  /// When non-empty, Fit appends one obs::EpochTelemetry JSON object per
  /// epoch to this file (JSONL). A fresh run truncates the file; a
  /// resumed one appends, so an interrupted + resumed training still
  /// yields one line per epoch. An unwritable path fails the Fit.
  std::string telemetry_path;
};

/// The full CrossEM+ configuration (soft prompt + MBG + NS + OPC).
CrossEmOptions CrossEmPlusOptions();

/// Per-epoch training telemetry (Table III / Fig. 8 measurements).
struct EpochStats {
  float loss = 0.0f;
  double seconds = 0.0;
  int64_t peak_bytes = 0;
  int64_t num_batches = 0;
  /// Candidate pairs processed: sum over batches of |V_i| * |I_i|
  /// (the quantity MBG reduces from |V||I|, Sec. IV-A).
  int64_t num_pairs = 0;
  /// Batches skipped by the non-finite loss/gradient guard.
  int64_t bad_batches = 0;
  /// Divergence rollbacks this epoch consumed before succeeding.
  int64_t retries = 0;
  /// Learning rate in effect when the epoch finished (halved on rollback).
  float learning_rate = 0.0f;
  /// Mean pre-clip global gradient L2 norm over the stepped batches.
  float grad_norm = 0.0f;
  // Phase breakdown of the successful attempt, seconds. The phases do
  // not sum to `seconds`: batch bookkeeping, the divergence-guard
  // snapshot, and any rolled-back attempts sit outside them.
  double batch_gen_seconds = 0.0;
  double encode_seconds = 0.0;
  double score_seconds = 0.0;
  double backward_seconds = 0.0;
  double optimizer_seconds = 0.0;
};

struct FitStats {
  std::vector<EpochStats> epochs;
  double total_seconds = 0.0;
  int64_t peak_bytes = 0;

  double AvgEpochSeconds() const;
  float FinalLoss() const;
};

/// A matched (vertex, image) pair of the output set S (Def. 2).
struct MatchingPair {
  graph::VertexId vertex;
  int64_t image;   // index into the fitted image tensor
  float score;     // matching probability p(v, I) of Eq. 4
};

/// The matcher: owns prompt generators and the tuning loop; the CLIP
/// model is borrowed and updated in place.
class CrossEm {
 public:
  /// All pointers must outlive the matcher.
  CrossEm(clip::ClipModel* model, const graph::Graph* graph,
          const text::Tokenizer* tokenizer, CrossEmOptions options);

  /// Unsupervised prompt tuning (Algorithm 1; CrossEM+ when the
  /// optimization toggles are on) over the candidate pairs
  /// `vertices` x `images` ([N, P, patch_dim]).
  ///
  /// The image tower and contrastive head stay frozen (paper Sec. II-C),
  /// so the candidate images are encoded once per Fit and every tuning
  /// step gathers its batch rows from that [N, embed_dim] bank. With the
  /// text tower frozen too, the soft prompt's label summaries h(l_v) are
  /// likewise built once per Fit and gathered.
  ///
  /// Baseline and hard prompt modes are discrete — there is nothing to
  /// tune unless tune_text_encoder is set (paper Tables III-IV report no
  /// training cost for CrossEM w/ f_pro^h) — so Fit returns empty stats
  /// for them.
  Result<FitStats> Fit(const std::vector<graph::VertexId>& vertices,
                       const Tensor& images);

  /// Joint-space embeddings of vertices under the configured prompt mode
  /// (inference; no gradients).
  Tensor EncodeVertices(const std::vector<graph::VertexId>& vertices) const;

  /// Joint-space embeddings of images [N, P, patch_dim] -> [N, embed_dim]
  /// (chunked across the thread pool; no gradients). N may be 0.
  Tensor EncodeImages(const Tensor& images) const;

  /// Cosine score matrix [num_vertices, num_images].
  Tensor ScoreMatrix(const std::vector<graph::VertexId>& vertices,
                     const Tensor& images) const;

  /// The matching set S: for each vertex, its top image by matching
  /// probability (Eq. 4), kept when the probability is at least
  /// `min_probability`.
  std::vector<MatchingPair> FindMatches(
      const std::vector<graph::VertexId>& vertices, const Tensor& images,
      float min_probability = 0.0f) const;

  /// High-precision variant: only pairs that are MUTUAL nearest
  /// neighbours (the image is the vertex's best match AND the vertex is
  /// that image's best match). A subset of FindMatches; the same
  /// criterion the unsupervised tuning uses for its pseudo-positives.
  std::vector<MatchingPair> FindMutualMatches(
      const std::vector<graph::VertexId>& vertices,
      const Tensor& images) const;

  /// CRC-32 fingerprint of everything EncodeVertices depends on: the
  /// prompt mode, the text tower's parameters and, in soft mode, the
  /// soft prompt's parameters. The serving layer keys its vertex
  /// embedding cache on this so entries from a stale model never
  /// satisfy queries against a retuned one.
  uint32_t EncoderFingerprint() const;

  /// The model's current temperature tau (Eq. 4 softmax scale).
  float Temperature() const;

  const CrossEmOptions& options() const { return options_; }
  const graph::Graph& graph() const { return *graph_; }
  SoftPromptGenerator* soft_prompt() { return soft_gen_.get(); }
  const HardPromptGenerator& hard_prompt() const { return hard_gen_; }

 private:
  /// Vertex embeddings with gradients (training path). `label_bank`, if
  /// defined, is the soft prompt's BuildLabelSummaryTable().
  Tensor EncodeVerticesForTraining(const std::vector<graph::VertexId>& vertices,
                                   const Tensor& label_bank) const;

  /// Trainable parameter set under the current options.
  std::vector<Tensor> TrainableParameters() const;

  /// Same tensors, in the same order, with stable checkpoint names
  /// ("model.text.*", "soft_prompt.*").
  std::vector<std::pair<std::string, Tensor>> NamedTrainableParameters() const;

  /// One full pass over the (re)generated mini-batches, with the
  /// non-finite batch guard. Fills loss/num_batches/num_pairs/bad_batches
  /// of `es`; the caller decides whether the attempt diverged.
  /// `image_bank` is EncodeImages() of the candidate images and
  /// `label_bank` the soft prompt's label summaries (undefined when the
  /// text tower is tuned).
  Status RunEpochAttempt(const std::vector<graph::VertexId>& vertices,
                         const Tensor& image_bank, const Tensor& label_bank,
                         const Tensor& proximity,
                         MiniBatchGenerator* generator,
                         nn::Optimizer* optimizer,
                         const std::vector<Tensor>& params, EpochStats* es);

  clip::ClipModel* model_;
  const graph::Graph* graph_;
  const text::Tokenizer* tokenizer_;
  CrossEmOptions options_;
  mutable Rng rng_;
  HardPromptGenerator hard_gen_;
  std::unique_ptr<SoftPromptGenerator> soft_gen_;
};

}  // namespace core
}  // namespace crossem

#endif  // CROSSEM_CORE_CROSSEM_H_
