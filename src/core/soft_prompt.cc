#include "core/soft_prompt.h"

#include <algorithm>

#include "core/hard_prompt.h"
#include "tensor/ops.h"
#include "util/logging.h"

namespace crossem {
namespace core {

SoftPromptGenerator::SoftPromptGenerator(const graph::Graph* graph,
                                         const clip::TextEncoder* text_encoder,
                                         const text::Tokenizer* tokenizer,
                                         SoftPromptOptions options, Rng* rng)
    : graph_(graph),
      text_encoder_(text_encoder),
      tokenizer_(tokenizer),
      options_(options) {
  CROSSEM_CHECK(graph != nullptr);
  CROSSEM_CHECK(text_encoder != nullptr);
  CROSSEM_CHECK(tokenizer != nullptr);
  CROSSEM_CHECK_GE(options.alpha, 0.0f);
  CROSSEM_CHECK_LE(options.alpha, 1.0f);

  const int64_t n = graph->NumVertices();
  const int64_t d = text_encoder->model_dim();

  // Initialize vertex features from the pre-trained token embeddings of
  // each label (paper: "initialize each embedding by utilizing
  // pre-trained language models such as BERT").
  Tensor init = Tensor::Zeros({n, d});
  {
    NoGradGuard guard;
    const Tensor& table = text_encoder->token_embedding().table();
    for (graph::VertexId v = 0; v < n; ++v) {
      auto words = text::SplitWords(graph->VertexLabel(v));
      std::vector<int64_t> ids;
      for (const auto& w : words) ids.push_back(tokenizer->vocab().Id(w));
      if (ids.empty()) ids.push_back(text::Vocabulary::kUnk);
      float* row = init.data() + v * d;
      const float inv = 1.0f / static_cast<float>(ids.size());
      for (int64_t id : ids) {
        const float* emb = table.data() + id * d;
        for (int64_t c = 0; c < d; ++c) row[c] += emb[c] * inv;
      }
    }
  }
  vertex_features_ = RegisterParameter("vertex_features", init);

  // Constant neighbor-average operator over the full graph.
  nn::AdjacencyList adj(static_cast<size_t>(n));
  for (graph::VertexId v = 0; v < n; ++v) {
    adj[static_cast<size_t>(v)] = graph->Neighbors(v);
  }
  neighbor_mean_ = nn::NeighborMeanMatrix(adj);

  if (options.backbone == SoftBackbone::kGraphSage) {
    sage_ = std::make_unique<nn::GraphSageLayer>(d, d, rng);
    RegisterModule("sage", sage_.get());
  }
  injector_ = std::make_unique<nn::Linear>(2 * d, d, rng);
  RegisterModule("injector", injector_.get());
  // Near-zero init: the injected prompt token starts as a no-op so the
  // untuned soft model matches the baseline, and tuning grows the prompt
  // from the task gradient (the "learned from the feedback of the model
  // on the task objective" behaviour of Sec. I, contribution 2).
  {
    Tensor w = injector_->weight();
    float* p = w.data();
    for (int64_t i = 0; i < w.numel(); ++i) p[i] *= 0.01f;
  }
}

Tensor SoftPromptGenerator::PromptFeatures(
    const std::vector<graph::VertexId>& vertices) const {
  Tensor all;
  if (options_.backbone == SoftBackbone::kGraphSage) {
    all = sage_->Forward(vertex_features_, neighbor_mean_);
  } else {
    all = nn::MeanAggregate(vertex_features_, neighbor_mean_, options_.alpha);
  }
  return ops::IndexSelect(all, vertices);
}

std::vector<int64_t> SoftPromptGenerator::LabelTokenIds(
    graph::VertexId v) const {
  auto words = text::SplitWords(graph_->VertexLabel(v));
  std::vector<int64_t> ids;
  for (const auto& w : words) ids.push_back(tokenizer_->vocab().Id(w));
  if (ids.empty()) ids.push_back(text::Vocabulary::kUnk);
  return ids;
}

Tensor SoftPromptGenerator::LabelSummary(
    const std::vector<graph::VertexId>& vertices) const {
  const int64_t d = text_encoder_->model_dim();
  const Tensor& table = text_encoder_->token_embedding().table();
  std::vector<Tensor> rows;
  rows.reserve(vertices.size());
  for (graph::VertexId v : vertices) {
    Tensor emb = ops::IndexSelect(table, LabelTokenIds(v));  // [L, D]
    rows.push_back(ops::Mean(emb, 0, /*keepdim=*/false));    // [D]
  }
  Tensor out = ops::Stack(rows);  // [B, D]
  CROSSEM_CHECK_EQ(out.size(1), d);
  return out;
}

Tensor SoftPromptGenerator::BuildLabelSummaryTable() const {
  NoGradGuard guard;
  const int64_t n = graph_->NumVertices();
  const int64_t d = text_encoder_->model_dim();
  const Tensor& table = text_encoder_->token_embedding().table();
  Tensor out = Tensor::Zeros({n, d});
  for (graph::VertexId v = 0; v < n; ++v) {
    // The same IndexSelect+Mean graph LabelSummary() runs per batch, so
    // the stored row is the identical float vector.
    Tensor row = ops::Mean(ops::IndexSelect(table, LabelTokenIds(v)), 0,
                           /*keepdim=*/false);
    std::copy_n(row.data(), d, out.data() + v * d);
  }
  return out;
}

std::vector<std::vector<int64_t>> SoftPromptGenerator::TokenizeLabels(
    const std::vector<graph::VertexId>& vertices) const {
  // Textual part: the structure-aware caption serialization (same text
  // the hard prompt produces), padded to the batch's longest row; one
  // slot of the context is reserved for the injected prompt vector. The
  // untuned soft model therefore starts from the hard prompt's operating
  // point, and tuning refines the continuous part on top.
  const int64_t context = text_encoder_->context_length();
  text::Tokenizer label_tokenizer(&tokenizer_->vocab(), context - 1);
  HardPromptOptions hard_options;
  hard_options.hops = 1;
  HardPromptGenerator hard(graph_, hard_options);
  std::vector<std::string> labels;
  labels.reserve(vertices.size());
  for (graph::VertexId v : vertices) {
    labels.push_back(hard.Generate(v));
  }
  return label_tokenizer.EncodeBatch(labels);
}

SoftPromptGenerator::PromptBatch SoftPromptGenerator::Generate(
    const std::vector<graph::VertexId>& vertices,
    const Tensor& label_bank) const {
  CROSSEM_CHECK(!vertices.empty());
  const int64_t b = static_cast<int64_t>(vertices.size());
  const int64_t d = text_encoder_->model_dim();
  const int64_t context = text_encoder_->context_length();

  std::vector<std::vector<int64_t>> token_batch = TokenizeLabels(vertices);

  const int64_t len = static_cast<int64_t>(token_batch[0].size());
  const int64_t total = len + 1;  // plus the injected prompt slot
  CROSSEM_CHECK_LE(total, context);

  // Token embeddings WITHOUT positions (ForwardFromEmbeddings adds them).
  std::vector<int64_t> flat;
  for (const auto& row : token_batch) {
    flat.insert(flat.end(), row.begin(), row.end());
  }
  Tensor tok = text_encoder_->token_embedding().Forward(flat);
  tok = ops::Reshape(tok, {b, len, d});

  // h^l(v) = ReLU(W (h(l_v) ++ f_pro^s(v)))  (Eq. 7).
  Tensor label_summary = label_bank.defined()
                             ? ops::IndexSelect(label_bank, vertices)
                             : LabelSummary(vertices);  // [B, D]
  Tensor prompt = PromptFeatures(vertices);             // [B, D]
  Tensor injected = ops::Relu(injector_->Forward(
      ops::Concat({label_summary, prompt}, /*dim=*/1)));  // [B, D]
  injected = ops::Reshape(injected, {b, 1, d});

  // Append the prompt vector after the textual tokens so every real
  // token keeps the position it had during pre-training (inserting
  // earlier would shift the whole sequence off the learned positional
  // embeddings): [CLS], tokens..., [SEP], h^l(v).
  PromptBatch batch;
  batch.embeddings = ops::Concat({tok, injected}, 1);  // [B, T, D]

  batch.mask = Tensor::Zeros({b, total});
  float* m = batch.mask.data();
  for (int64_t i = 0; i < b; ++i) {
    for (int64_t j = 0; j < len; ++j) {
      if (token_batch[static_cast<size_t>(i)][static_cast<size_t>(j)] !=
          text::Vocabulary::kPad) {
        m[i * total + j] = 1.0f;
      }
    }
    m[i * total + len] = 1.0f;  // injected prompt
  }
  return batch;
}

}  // namespace core
}  // namespace crossem
