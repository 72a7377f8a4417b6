// fit_step micro-bench: compiled ExecutionPlan replay vs the eager tape
// (BENCH_plan.json). One tuning step — image-bank gather, text encode,
// similarity, mutual-NN pseudo-positive selection, contrastive loss,
// backward — is timed through core/step_plan.h's trace/replay path and
// through the equivalent eager code, at 1 and 8 threads.
//
// Records:
//   fit_step_eager_ref   eager step ns/iter (anchor rows, not gated)
//   fit_step_plan        speedup = same-thread eager ns / plan ns. The
//                        replay advantage is the per-step graph build,
//                        pool traffic and backward DFS the plan skips;
//                        single-core it is modest (the closures ARE the
//                        kernel work), and it widens with cores because
//                        that overhead is serial while kernels scale.
//   fit_step_seed_ref    the seed's execution mode (reference scalar GEMM
//                        + unfused kernels) at 1 thread
//   fit_step_plan_vs_seed  composite column: plan replay vs the seed
//                        step, same convention as pcp_proximity_seed_gemm
//   fit_step_replay_rate fraction of measured planned steps served by
//                        replay; 1.0 = zero re-traces after warmup
//                        (ns_per_iter column carries the re-trace count)
//
// All ratios ride the regression gate in tools/check_bench_regression.py.
#include <cstdio>
#include <vector>

#include "bench/parallel_report.h"
#include "clip/clip.h"
#include "core/crossem.h"
#include "core/losses.h"
#include "core/step_plan.h"
#include "data/dataset.h"
#include "obs/metrics.h"
#include "tensor/ops.h"
#include "tensor/plan.h"
#include "text/tokenizer.h"
#include "util/logging.h"

namespace crossem {
namespace {

struct PlanBenchContext {
  data::CrossModalDataset dataset;
  std::unique_ptr<clip::ClipModel> model;
  std::unique_ptr<text::Tokenizer> tokenizer;
  std::unique_ptr<core::CrossEm> matcher;
  core::CrossEmOptions options;
  std::vector<graph::VertexId> verts;  // one batch of vertices
  std::vector<int64_t> image_indices;  // one batch of images
  Tensor image_bank;  // EncodeImages of the test images, as Fit builds it
  std::vector<Tensor> params;

  PlanBenchContext() : dataset(data::BuildDataset(data::CubLikeConfig(0.6))) {
    clip::ClipConfig cc;
    cc.vocab_size = dataset.vocab.size();
    cc.text_context = 32;
    cc.model_dim = 16;
    cc.text_layers = 1;
    cc.text_heads = 2;
    cc.image_layers = 1;
    cc.image_heads = 2;
    cc.patch_dim = dataset.world->config().patch_dim;
    cc.max_patches = 16;
    cc.embed_dim = 12;
    Rng rng(3);
    model = std::make_unique<clip::ClipModel>(cc, &rng);
    tokenizer = std::make_unique<text::Tokenizer>(&dataset.vocab, 32);

    options.prompt_mode = core::PromptMode::kSoft;
    matcher = std::make_unique<core::CrossEm>(model.get(), &dataset.graph,
                                              tokenizer.get(), options);

    std::vector<graph::VertexId> all;
    for (int64_t c : dataset.test_classes) {
      all.push_back(dataset.entities[static_cast<size_t>(c)]);
    }
    const Tensor images = dataset.StackImages(dataset.TestImageIndices());
    image_bank = matcher->EncodeImages(images);
    const size_t nv = std::min<size_t>(
        all.size(), static_cast<size_t>(options.batch_vertices));
    verts.assign(all.begin(), all.begin() + static_cast<long>(nv));
    const int64_t ni = std::min<int64_t>(images.size(0), options.batch_images);
    for (int64_t i = 0; i < ni; ++i) image_indices.push_back(i);

    // The trainable set of a soft-prompt Fit with the towers frozen.
    params = matcher->soft_prompt()->Parameters();
  }
};

void EmitPlanReport() {
  bench::ParallelReport report;
  PlanBenchContext ctx;
  const std::string size = std::to_string(ctx.verts.size()) + "v" +
                           std::to_string(ctx.image_indices.size()) +
                           "i_dim16";

  auto zero_grads = [&] {
    for (Tensor& p : ctx.params) p.ZeroGrad();
  };

  // The eager step: the exact code RunEpochAttempt's fallback branch runs.
  auto eager = [&] {
    zero_grads();
    Tensor image_emb = ops::IndexSelect(ctx.image_bank, ctx.image_indices);
    core::SoftPromptGenerator::PromptBatch batch =
        ctx.matcher->soft_prompt()->Generate(ctx.verts);
    Tensor text_emb =
        ctx.model->text().ForwardFromEmbeddings(batch.embeddings, batch.mask);
    std::vector<int64_t> confident_rows;
    std::vector<int64_t> confident_targets;
    {
      NoGradGuard guard;
      Tensor sim =
          clip::ClipModel::SimilarityMatrix(text_emb.Detach(), image_emb);
      std::vector<int64_t> t2i = ops::ArgMax(sim, -1);
      std::vector<int64_t> i2t = ops::ArgMax(ops::Transpose(sim, 0, 1), -1);
      for (size_t r = 0; r < t2i.size(); ++r) {
        const int64_t img = t2i[r];
        if (i2t[static_cast<size_t>(img)] == static_cast<int64_t>(r)) {
          confident_rows.push_back(static_cast<int64_t>(r));
          confident_targets.push_back(img);
        }
      }
    }
    CROSSEM_CHECK(!confident_rows.empty());
    Tensor selected = ops::IndexSelect(text_emb, confident_rows);
    Tensor loss =
        ctx.model->ContrastiveLoss(selected, image_emb, confident_targets);
    loss.Backward();
  };

  // The planned step: trace once, replay every later call.
  core::FitStepPlanner planner(ctx.model.get(), ctx.matcher->soft_prompt(),
                               &ctx.options, ctx.params, ctx.image_bank);
  auto planned = [&] {
    zero_grads();
    core::FitStepPlanner::StepOutcome o;
    CROSSEM_CHECK(planner.RunForward(ctx.verts, ctx.image_indices, &o));
    CROSSEM_CHECK_GT(o.num_confident, 0);
    planner.RunBackward();
  };

  const double eager_1t = report.Measure("fit_step_eager_ref", size, 1, eager);
  const double eager_8t = report.Measure("fit_step_eager_ref", size, 8, eager);

  planned();  // warmup: trace encode + loss variant
  planned();  // warmup: record the backward tape, first replay

  auto* traces =
      obs::MetricsRegistry::Default().GetCounter("plan_traces_total");
  auto* replays =
      obs::MetricsRegistry::Default().GetCounter("plan_replays_total");
  const int64_t traces0 = traces->Value();
  const int64_t replays0 = replays->Value();
  const double plan_1t =
      report.Measure("fit_step_plan", size, 1, planned, eager_1t);
  const double plan_8t =
      report.Measure("fit_step_plan", size, 8, planned, eager_8t);
  const int64_t retraces = traces->Value() - traces0;
  const int64_t replayed = replays->Value() - replays0;

  // Steady-state replay rate: every measured step should hit the plan
  // (re-traces after warmup mean the invalidation logic is thrashing).
  bench::ParallelBenchRecord rate;
  rate.op = "fit_step_replay_rate";
  rate.size = size;
  rate.threads = 1;
  rate.ns_per_iter = static_cast<double>(retraces);
  rate.speedup = (replayed + retraces) > 0
                     ? static_cast<double>(replayed) /
                           static_cast<double>(replayed + retraces)
                     : 0.0;
  report.AddRecord(rate);

  // Composite column: the same step under the seed's execution mode
  // (serial scalar GEMM, unfused kernels) — what the plan replay replaces
  // when measured against the repository baseline rather than the current
  // optimized eager path. Mirrors pcp_proximity_seed_gemm.
  ops::SetGemmKernel(ops::GemmKernel::kReference);
  ops::SetFusedKernels(ops::FusedKernels::kReference);
  const double seed_1t = report.Measure("fit_step_seed_ref", size, 1, eager);
  ops::SetGemmKernel(ops::GemmKernel::kBlocked);
  ops::SetFusedKernels(ops::FusedKernels::kFused);
  bench::ParallelBenchRecord composite;
  composite.op = "fit_step_plan_vs_seed";
  composite.size = size;
  composite.threads = 1;
  composite.ns_per_iter = plan_1t;
  composite.speedup = seed_1t / plan_1t;
  report.AddRecord(composite);

  std::printf(
      "fit_step %s: eager %.0f/%.0f ns (1T/8T), plan %.0f/%.0f ns "
      "(%.2fx/%.2fx), seed %.0f ns (plan %.2fx), %lld re-traces after "
      "warmup\n",
      size.c_str(), eager_1t, eager_8t, plan_1t, plan_8t, eager_1t / plan_1t,
      eager_8t / plan_8t, seed_1t, seed_1t / plan_1t,
      static_cast<long long>(retraces));

  const std::string path = bench::PlanReportPath();
  if (report.WriteJson(path)) {
    std::printf("wrote %zu plan perf records to %s\n",
                report.records().size(), path.c_str());
  }
}

}  // namespace
}  // namespace crossem

int main() {
  crossem::plan::SetEnabled(true);
  crossem::EmitPlanReport();
  return 0;
}
