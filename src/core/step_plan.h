// Compiled training steps for CrossEm::Fit (tensor/plan.h applied to the
// tuning loop).
//
// A tuning step has a fixed dataflow once its shapes are known: gather the
// batch's rows of the Fit's image bank (the frozen image tower's output,
// encoded once per Fit), encode the text side, score, pick mutual-nearest
// pseudo-positives, and take the contrastive(+orthogonal) loss over the
// confident pairs. FitStepPlanner traces that dataflow ONCE per shape and
// replays the recorded closures on every later step:
//
//   - The "encode" segment — soft-prompt text encode and similarity
//     matrix — is keyed on (batch_vertices, batch_images,
//     padded_token_len). Per-step inputs flow through index slots (vertex
//     ids, token ids) and write-in buffers (image embeddings, attention
//     mask) that the host refreshes before each replay.
//   - Pseudo-positive selection is host code over the retained similarity
//     buffers (exactly the eager argmax/mutual-NN scan).
//   - The loss segment depends on the number of confident pairs, so each
//     distinct pair count gets its own traced variant chaining into the
//     retained encode tape; the pair rows/targets are slots. The variant's
//     first backward runs eagerly under a capture scope, which records the
//     tape schedule for ReplayBackward.
//
// Replay is bitwise-identical to the eager step (see tensor/plan.h): the
// recorded closures ARE the eager computation over the same buffers.
// Plans self-invalidate on kernel-table changes and stale parameter
// storages (re-trace), and any step whose capture sees an uninstrumented
// op falls back to eager permanently for that shape.
//
// Eligibility: soft prompt mode with the text tower frozen
// (!tune_text_encoder) — the planner's precomputed label-summary table
// requires a frozen token-embedding table — and plan::Enabled()
// (CROSSEM_EXEC_PLAN kill switch). A planner instance is built per Fit
// call and must not outlive its `image_bank` tensor or model.
#ifndef CROSSEM_CORE_STEP_PLAN_H_
#define CROSSEM_CORE_STEP_PLAN_H_

#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include "clip/clip.h"
#include "core/soft_prompt.h"
#include "graph/graph.h"
#include "tensor/plan.h"
#include "tensor/tensor.h"

namespace crossem {
namespace core {

struct CrossEmOptions;

/// Trace-once/replay-many executor for the Fit tuning step.
class FitStepPlanner {
 public:
  /// All pointers/tensors must outlive the planner (it is a Fit-scoped
  /// object). `params` is the trainable set the plans validate against;
  /// `image_bank` is CrossEm::EncodeImages() of the Fit's candidate
  /// images, [N, embed_dim].
  FitStepPlanner(clip::ClipModel* model, SoftPromptGenerator* soft_gen,
                 const CrossEmOptions* options, std::vector<Tensor> params,
                 const Tensor& image_bank);
  FitStepPlanner(const FitStepPlanner&) = delete;
  FitStepPlanner& operator=(const FitStepPlanner&) = delete;

  /// Whether the configuration supports planned steps at all.
  static bool Eligible(const CrossEmOptions& options);

  struct StepOutcome {
    Tensor loss;                 // undefined when num_confident == 0
    int64_t num_confident = 0;   // mutual-NN pseudo-positive count
    bool replayed = false;       // replayed (vs freshly traced) encode
  };

  /// Runs encode + score + pseudo-positive selection + loss through the
  /// plan machinery. Returns false when this batch cannot be planned
  /// (incomplete capture) — the caller must run the eager step instead.
  bool RunForward(const std::vector<graph::VertexId>& verts,
                  const std::vector<int64_t>& image_indices,
                  StepOutcome* out);

  /// Backward for the loss the last RunForward returned: tape replay
  /// when the variant has a recorded backward, otherwise the eager
  /// backward under a capture scope (recording it for next time).
  /// Only call after RunForward returned true with num_confident > 0.
  void RunBackward();

 private:
  struct LossVariant {
    plan::ExecutionPlan plan;
    plan::IndexSlot rows;     // confident text rows
    plan::IndexSlot targets;  // their image columns
    Tensor loss;
  };
  struct StepContext {
    plan::ExecutionPlan encode;
    plan::IndexSlot vertices;     // vertex ids, re-read per replay
    plan::IndexSlot flat_tokens;  // row-major padded token ids
    Tensor image_emb;             // write-in [Ni, embed_dim] bank rows
    Tensor mask;                  // write-in [Nv, len + 1]
    Tensor text_emb, sim, sim_t;  // retained outputs
    std::map<int64_t, LossVariant> variants;  // keyed by pair count
    bool bad = false;  // capture was incomplete: always eager
  };
  using Key = std::tuple<int64_t, int64_t, int64_t>;  // (Nv, Ni, len)

  void RefreshInputs(StepContext* ctx,
                     const std::vector<graph::VertexId>& verts,
                     const std::vector<std::vector<int64_t>>& token_batch,
                     const std::vector<int64_t>& image_indices);

  clip::ClipModel* model_;
  SoftPromptGenerator* soft_gen_;
  const CrossEmOptions* options_;
  std::vector<Tensor> params_;
  Tensor image_bank_;     // the Fit candidate images, encoded [N, embed_dim]
  Tensor label_summary_;  // precomputed h(l_v) table [N, model_dim]
  std::map<Key, StepContext> contexts_;
  LossVariant* active_ = nullptr;
  // The encode plan active_'s variant chains into; RunBackward zeroes its
  // retained gradient buffers before recording the variant's first
  // (eager) backward.
  plan::ExecutionPlan* active_encode_ = nullptr;
};

}  // namespace core
}  // namespace crossem

#endif  // CROSSEM_CORE_STEP_PLAN_H_
