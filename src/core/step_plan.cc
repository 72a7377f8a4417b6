#include "core/step_plan.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "core/crossem.h"
#include "core/losses.h"
#include "obs/trace.h"
#include "tensor/ops.h"
#include "util/logging.h"

namespace crossem {
namespace core {

namespace {

// Bounds the shape-keyed context cache. Each context retains one traced
// step's activations, so a pathological batch-size mix could otherwise
// grow without limit; hitting the cap simply drops every plan (warm keys
// re-trace, which is just an instrumented eager step).
constexpr size_t kMaxContexts = 16;

}  // namespace

FitStepPlanner::FitStepPlanner(clip::ClipModel* model,
                               SoftPromptGenerator* soft_gen,
                               const CrossEmOptions* options,
                               std::vector<Tensor> params,
                               const Tensor& image_bank)
    : model_(model),
      soft_gen_(soft_gen),
      options_(options),
      params_(std::move(params)),
      image_bank_(image_bank) {
  CROSSEM_CHECK(model != nullptr);
  CROSSEM_CHECK(soft_gen != nullptr);
  CROSSEM_CHECK(options != nullptr);
  CROSSEM_CHECK(image_bank.defined());
  CROSSEM_CHECK_EQ(image_bank.dim(), 2);
  // h(l_v) for every vertex, gathered by slot inside the traced graph.
  // Valid for the whole Fit because eligibility requires the token table
  // frozen (!tune_text_encoder).
  label_summary_ = soft_gen->BuildLabelSummaryTable();
}

bool FitStepPlanner::Eligible(const CrossEmOptions& options) {
  return plan::Enabled() && options.prompt_mode == PromptMode::kSoft &&
         !options.tune_text_encoder;
}

void FitStepPlanner::RefreshInputs(
    StepContext* ctx, const std::vector<graph::VertexId>& verts,
    const std::vector<std::vector<int64_t>>& token_batch,
    const std::vector<int64_t>& image_indices) {
  const int64_t b = static_cast<int64_t>(verts.size());
  const int64_t len = static_cast<int64_t>(token_batch[0].size());
  const int64_t total = len + 1;

  ctx->vertices->assign(verts.begin(), verts.end());

  std::vector<int64_t>& flat = *ctx->flat_tokens;
  flat.clear();
  flat.reserve(static_cast<size_t>(b * len));
  for (const auto& row : token_batch) {
    flat.insert(flat.end(), row.begin(), row.end());
  }

  // Attention mask, identical to SoftPromptGenerator::Generate()'s.
  float* m = ctx->mask.data();
  std::fill_n(m, b * total, 0.0f);
  for (int64_t i = 0; i < b; ++i) {
    for (int64_t j = 0; j < len; ++j) {
      if (token_batch[static_cast<size_t>(i)][static_cast<size_t>(j)] !=
          text::Vocabulary::kPad) {
        m[i * total + j] = 1.0f;
      }
    }
    m[i * total + len] = 1.0f;  // injected prompt slot
  }

  // Batch image embeddings, gathered on the host into the write-in
  // buffer. Byte-equal to the eager step's IndexSelect (both are
  // contiguous row copies out of `image_bank_`).
  const int64_t row_elems = image_bank_.size(1);
  float* dst = ctx->image_emb.data();
  const float* src = image_bank_.data();
  for (size_t i = 0; i < image_indices.size(); ++i) {
    const int64_t idx = image_indices[i];
    CROSSEM_CHECK_GE(idx, 0);
    CROSSEM_CHECK_LT(idx, image_bank_.size(0));
    std::memcpy(dst + static_cast<int64_t>(i) * row_elems,
                src + idx * row_elems,
                static_cast<size_t>(row_elems) * sizeof(float));
  }
}

bool FitStepPlanner::RunForward(const std::vector<graph::VertexId>& verts,
                                const std::vector<int64_t>& image_indices,
                                StepOutcome* out) {
  CROSSEM_CHECK(out != nullptr);
  active_ = nullptr;
  active_encode_ = nullptr;
  if (verts.empty() || image_indices.empty()) return false;

  // Host tokenization (the same work Generate() does eagerly); the padded
  // row length is part of the plan's shape key.
  const std::vector<std::vector<int64_t>> token_batch =
      soft_gen_->TokenizeLabels(verts);
  const int64_t nv = static_cast<int64_t>(verts.size());
  const int64_t ni = static_cast<int64_t>(image_indices.size());
  const int64_t len = static_cast<int64_t>(token_batch[0].size());
  const Key key{nv, ni, len};

  auto it = contexts_.find(key);
  bool need_trace = false;
  if (it == contexts_.end()) {
    if (contexts_.size() >= kMaxContexts) {
      CROSSEM_LOG(Warning) << "fit-step plan cache full (" << contexts_.size()
                           << " shapes); dropping all plans";
      contexts_.clear();
    }
    it = contexts_.try_emplace(key).first;
    need_trace = true;
  } else if (it->second.bad) {
    return false;
  } else {
    std::string reason;
    if (!it->second.encode.Validate(&reason)) {
      CROSSEM_LOG(Info) << "fit-step plan invalidated (" << reason
                        << "); re-tracing";
      contexts_.erase(it);
      it = contexts_.try_emplace(key).first;
      need_trace = true;
    }
  }
  StepContext& ctx = it->second;

  if (need_trace) {
    ctx.vertices = plan::MakeIndexSlot();
    ctx.flat_tokens = plan::MakeIndexSlot();
    ctx.image_emb = Tensor::Zeros({ni, image_bank_.size(1)});
    ctx.mask = Tensor::Zeros({nv, len + 1});
  }
  RefreshInputs(&ctx, verts, token_batch, image_indices);

  if (need_trace) {
    CROSSEM_TRACE_SPAN("plan_trace");
    {
      plan::CaptureScope scope(&ctx.encode);
      SoftPromptGenerator::PromptBatch batch = soft_gen_->GenerateSlot(
          ctx.vertices, ctx.flat_tokens, len, label_summary_, ctx.mask);
      ctx.text_emb = model_->text().ForwardFromEmbeddings(batch.embeddings,
                                                          batch.mask);
      {
        NoGradGuard guard;
        ctx.sim = clip::ClipModel::SimilarityMatrix(ctx.text_emb.Detach(),
                                                    ctx.image_emb);
        ctx.sim_t = ops::Transpose(ctx.sim, 0, 1);
      }
    }
    ctx.encode.BindParams(params_);
    if (!ctx.encode.complete()) {
      ctx.bad = true;  // uninstrumented op on this path: stay eager
      return false;
    }
  } else {
    ctx.encode.Replay();
  }

  // Pseudo-positive selection: the eager mutual-nearest-neighbour scan,
  // reading the retained similarity buffers.
  std::vector<int64_t> confident_rows;
  std::vector<int64_t> confident_targets;
  {
    const std::vector<int64_t> t2i = ops::ArgMax(ctx.sim, -1);
    const std::vector<int64_t> i2t = ops::ArgMax(ctx.sim_t, -1);
    for (size_t r = 0; r < t2i.size(); ++r) {
      const int64_t img = t2i[r];
      if (i2t[static_cast<size_t>(img)] == static_cast<int64_t>(r)) {
        confident_rows.push_back(static_cast<int64_t>(r));
        confident_targets.push_back(img);
      }
    }
  }

  out->replayed = !need_trace;
  out->num_confident = static_cast<int64_t>(confident_rows.size());
  if (confident_rows.empty()) return true;  // planned; no trustworthy pair

  const int64_t nc = out->num_confident;
  auto vit = ctx.variants.find(nc);
  if (vit == ctx.variants.end()) {
    vit = ctx.variants.try_emplace(nc).first;
    LossVariant& v = vit->second;
    v.rows = plan::MakeIndexSlot(std::move(confident_rows));
    v.targets = plan::MakeIndexSlot(std::move(confident_targets));
    {
      CROSSEM_TRACE_SPAN("plan_trace");
      plan::CaptureScope scope(&v.plan);
      Tensor selected = ops::IndexSelectSlot(ctx.text_emb, v.rows);
      v.loss = model_->ContrastiveLossSlot(selected, ctx.image_emb, v.targets);
      if (options_->use_orthogonal_constraint) {
        Tensor lo =
            OrthogonalPromptLoss(soft_gen_->PromptFeaturesSlot(ctx.vertices));
        v.loss = CombinedLoss(v.loss, lo, options_->beta);
      }
    }
    v.plan.BindParams(params_);
    if (!v.plan.complete()) {
      ctx.variants.erase(vit);
      ctx.bad = true;
      return false;
    }
  } else {
    LossVariant& v = vit->second;
    std::string reason;
    if (!v.plan.Validate(&reason)) {
      // Unreachable in practice (the encode plan validated moments ago
      // against the same state), but drop the whole context and fall
      // back rather than replay a stale tape.
      CROSSEM_LOG(Info) << "fit-step loss plan invalidated (" << reason
                        << "); dropping context";
      contexts_.erase(it);
      return false;
    }
    *v.rows = std::move(confident_rows);
    *v.targets = std::move(confident_targets);
    v.plan.Replay();
  }

  active_ = &vit->second;
  active_encode_ = &ctx.encode;
  out->loss = active_->loss;
  return true;
}

void FitStepPlanner::RunBackward() {
  CROSSEM_CHECK(active_ != nullptr)
      << "RunBackward without a planned loss from RunForward";
  if (active_->plan.has_backward()) {
    active_->plan.ReplayBackward();
    return;
  }
  // First backward of this variant: run the eager tape under a capture
  // scope so Tensor::Backward() hands the plan its schedule. The tape
  // closures are raw-loop kernels (no tensor ops), so nothing else
  // records. The retained encode tape may still hold gradients from an
  // earlier variant's backward — eager Backward() accumulates into
  // whatever the buffers contain, and a fresh eager graph would have had
  // newly-zeroed ones — so zero the retained tape first.
  active_encode_->ZeroRetainedGrads();
  plan::CaptureScope scope(&active_->plan);
  active_->loss.Backward();
}

}  // namespace core
}  // namespace crossem
