// Soft (continuous) prompt f_pro^s (paper Sec. III-C, Eq. 6-7).
//
// Each vertex gets a trainable structural feature; prompts are produced
// by aggregating d-hop neighbor features:
//
//   f_pro^s(v) = alpha * h(v) + (1 - alpha) * sum_{u in N(v)} h(u)   (Eq. 6)
//
// (the sum realized as a mean via the neighbor-average operator, or a
// GraphSAGE layer for the FB-style datasets, per the paper's
// implementation details). The prompt is injected into the text encoder
// input (the feature-based encoder of Fig. 4(b)):
//
//   h^l(v) = ReLU(W (h(l_v) (+) f_pro^s(v)))                          (Eq. 7)
//
// where h(l_v) is the label's token embedding summary, and h^l(v) is
// spliced into the token-embedding sequence right after [CLS].
//
// Vertex features are initialized from the pre-trained token embeddings
// of the vertex label (the paper initializes from BERT/RoBERTa) and are
// updated by backpropagation — this module owns the trainable prompt
// parameters of CrossEM w/ f_pro^s.
#ifndef CROSSEM_CORE_SOFT_PROMPT_H_
#define CROSSEM_CORE_SOFT_PROMPT_H_

#include <memory>
#include <vector>

#include "clip/clip.h"
#include "graph/graph.h"
#include "nn/graph_agg.h"
#include "nn/layers.h"
#include "nn/module.h"
#include "text/tokenizer.h"

namespace crossem {
namespace core {

/// Structural-feature backbone choice (paper: GNN for CUB/SUN,
/// GraphSAGE for FB15K).
enum class SoftBackbone { kGnn, kGraphSage };

struct SoftPromptOptions {
  /// Aggregation weight alpha of Eq. 6 (grid-searched in the paper).
  float alpha = 0.5f;
  SoftBackbone backbone = SoftBackbone::kGnn;
};

/// Trainable continuous prompt generator.
class SoftPromptGenerator : public nn::Module {
 public:
  /// `graph`, `text_encoder` and `tokenizer` must outlive the generator.
  /// Vertex features are initialized from `text_encoder`'s token table.
  SoftPromptGenerator(const graph::Graph* graph,
                      const clip::TextEncoder* text_encoder,
                      const text::Tokenizer* tokenizer,
                      SoftPromptOptions options, Rng* rng);

  /// Input-embedding sequences ready for
  /// TextEncoder::ForwardFromEmbeddings.
  struct PromptBatch {
    Tensor embeddings;  // [B, T, model_dim]
    Tensor mask;        // [B, T]; 1 = attended position
  };

  /// Builds prompt-injected input sequences for a vertex batch. With a
  /// `label_bank` (BuildLabelSummaryTable()), h(l_v) is gathered from it
  /// instead of recomputed from the token table.
  PromptBatch Generate(const std::vector<graph::VertexId>& vertices,
                       const Tensor& label_bank = Tensor()) const;

  /// The raw prompt features f_pro^s for a vertex batch [B, model_dim]
  /// (stacked prompt matrix f_i^s used by the orthogonal constraint,
  /// Eq. 9).
  Tensor PromptFeatures(const std::vector<graph::VertexId>& vertices) const;

  /// Mean label-token embedding h(l_v) for a vertex batch [B, model_dim],
  /// read from the current token table.
  Tensor LabelSummary(const std::vector<graph::VertexId>& vertices) const;

  /// The label bank: h(l_v) for EVERY vertex as an [N, model_dim]
  /// constant, each row built by the same IndexSelect+Mean graph
  /// LabelSummary() runs per batch, so gathered rows are bitwise its
  /// output. Only valid while the token-embedding table is frozen, so
  /// callers build it per tuning run.
  Tensor BuildLabelSummaryTable() const;

  const Tensor& vertex_features() const { return vertex_features_; }

 private:
  /// The padded label-token rows Generate() encodes for a vertex batch.
  std::vector<std::vector<int64_t>> TokenizeLabels(
      const std::vector<graph::VertexId>& vertices) const;

  /// Label token ids for one vertex (shared by init, LabelSummary and the
  /// precomputed table).
  std::vector<int64_t> LabelTokenIds(graph::VertexId v) const;

  const graph::Graph* graph_;
  const clip::TextEncoder* text_encoder_;
  const text::Tokenizer* tokenizer_;
  SoftPromptOptions options_;
  Tensor vertex_features_;  // trainable [N, model_dim]
  Tensor neighbor_mean_;    // constant [N, N]
  std::unique_ptr<nn::GraphSageLayer> sage_;
  std::unique_ptr<nn::Linear> injector_;  // W of Eq. 7
};

}  // namespace core
}  // namespace crossem

#endif  // CROSSEM_CORE_SOFT_PROMPT_H_
