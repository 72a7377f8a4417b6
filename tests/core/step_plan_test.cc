// Compiled fit-step acceptance (core/step_plan.h + tensor/plan.h): a Fit
// run through trace-once/replay-many plans must be bitwise-identical to
// the pure eager path — final parameters AND checkpoint bytes — at 1 and
// 8 threads, and the planner must re-trace on batch-shape or kernel-table
// changes (never replay a stale schedule).
#include "core/step_plan.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/crossem.h"
#include "data/dataset.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "tensor/ops.h"
#include "tensor/plan.h"
#include "util/parallel.h"

namespace crossem {
namespace core {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

int64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Default().GetCounter(name)->Value();
}

class StepPlanFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ds_ = new data::CrossModalDataset(
        data::BuildDataset(data::CubLikeConfig(0.5)));
    clip::ClipConfig cc;
    cc.vocab_size = ds_->vocab.size();
    cc.text_context = 32;
    cc.model_dim = 16;
    cc.text_layers = 1;
    cc.text_heads = 2;
    cc.image_layers = 1;
    cc.image_heads = 2;
    cc.patch_dim = ds_->world->config().patch_dim;
    cc.max_patches = 16;
    cc.embed_dim = 12;
    Rng rng(29);
    model_ = new clip::ClipModel(cc, &rng);
    tokenizer_ = new text::Tokenizer(&ds_->vocab, cc.text_context);
    snapshot_ = new std::vector<Tensor>(model_->SnapshotParameters());
    for (int64_t c : ds_->test_classes) {
      vertices_.push_back(ds_->entities[static_cast<size_t>(c)]);
    }
    images_ = new Tensor(ds_->StackImages(ds_->TestImageIndices()));
  }

  static void TearDownTestSuite() {
    delete snapshot_;
    delete images_;
    delete tokenizer_;
    delete model_;
    delete ds_;
    vertices_.clear();
  }

  void SetUp() override {
    plan::SetEnabled(true);
    model_->RestoreParameters(*snapshot_);
  }
  void TearDown() override {
    plan::SetEnabled(true);
    ops::SetGemmKernel(ops::GemmKernel::kBlocked);
    SetNumThreads(0);
  }

  static CrossEmOptions SoftOptions() {
    CrossEmOptions opt;
    opt.prompt_mode = PromptMode::kSoft;
    opt.epochs = 2;
    return opt;
  }

  static std::vector<std::vector<float>> PromptValues(CrossEm* m) {
    std::vector<std::vector<float>> out;
    for (const Tensor& p : m->soft_prompt()->Parameters()) {
      out.push_back(p.ToVector());
    }
    return out;
  }

  /// One Fit with the execution plan on or off; returns the final prompt
  /// parameters and the checkpoint's raw bytes.
  void RunFit(bool planned, const char* ckpt_name,
              std::vector<std::vector<float>>* params, std::string* ckpt) {
    model_->RestoreParameters(*snapshot_);
    plan::SetEnabled(planned);
    CrossEmOptions opt = SoftOptions();
    opt.checkpoint_path = TempPath(ckpt_name);
    std::remove(opt.checkpoint_path.c_str());
    CrossEm matcher(model_, &ds_->graph, tokenizer_, opt);
    auto fit = matcher.Fit(vertices_, *images_);
    ASSERT_TRUE(fit.ok()) << fit.status().message();
    *params = PromptValues(&matcher);
    *ckpt = ReadFileBytes(opt.checkpoint_path);
    plan::SetEnabled(true);
  }

  void RunPlannedVsEagerDrill(int threads, const char* tag) {
    SetNumThreads(threads);
    const int64_t replays = CounterValue("plan_replays_total");
    const int64_t backward_replays =
        CounterValue("plan_backward_replays_total");

    std::vector<std::vector<float>> planned_params, eager_params;
    std::string planned_ckpt, eager_ckpt;
    RunFit(true, (std::string("plan_ckpt_") + tag).c_str(), &planned_params,
           &planned_ckpt);
    // The planned run must actually exercise replay (forward AND
    // backward), not silently fall back to eager.
    EXPECT_GT(CounterValue("plan_replays_total"), replays);
    EXPECT_GT(CounterValue("plan_backward_replays_total"), backward_replays);

    RunFit(false, (std::string("eager_ckpt_") + tag).c_str(), &eager_params,
           &eager_ckpt);

    EXPECT_EQ(planned_params, eager_params);
    EXPECT_EQ(planned_ckpt, eager_ckpt);
  }

  static data::CrossModalDataset* ds_;
  static clip::ClipModel* model_;
  static text::Tokenizer* tokenizer_;
  static std::vector<Tensor>* snapshot_;
  static Tensor* images_;
  static std::vector<graph::VertexId> vertices_;
};

data::CrossModalDataset* StepPlanFixture::ds_ = nullptr;
clip::ClipModel* StepPlanFixture::model_ = nullptr;
text::Tokenizer* StepPlanFixture::tokenizer_ = nullptr;
std::vector<Tensor>* StepPlanFixture::snapshot_ = nullptr;
Tensor* StepPlanFixture::images_ = nullptr;
std::vector<graph::VertexId> StepPlanFixture::vertices_;

TEST_F(StepPlanFixture, PlannedFitMatchesEagerBitwiseOneThread) {
  RunPlannedVsEagerDrill(1, "1t");
}

TEST_F(StepPlanFixture, PlannedFitMatchesEagerBitwiseEightThreads) {
  RunPlannedVsEagerDrill(8, "8t");
}

TEST_F(StepPlanFixture, RetracesOnBatchShapeChangeAndReplaysWarmShapes) {
  CrossEmOptions opt = SoftOptions();
  CrossEm matcher(model_, &ds_->graph, tokenizer_, opt);
  ASSERT_TRUE(FitStepPlanner::Eligible(opt));
  FitStepPlanner planner(model_, matcher.soft_prompt(), &opt,
                         matcher.soft_prompt()->Parameters(),
                         matcher.EncodeImages(*images_));

  std::vector<graph::VertexId> batch4(vertices_.begin(),
                                      vertices_.begin() + 4);
  std::vector<graph::VertexId> batch3(vertices_.begin(),
                                      vertices_.begin() + 3);
  std::vector<int64_t> image_indices{0, 1, 2, 3};

  FitStepPlanner::StepOutcome out;
  int64_t traces = CounterValue("plan_traces_total");
  ASSERT_TRUE(planner.RunForward(batch4, image_indices, &out));
  EXPECT_FALSE(out.replayed);  // cold shape: traced
  EXPECT_GT(CounterValue("plan_traces_total"), traces);

  // A different batch shape is a different plan: trace again.
  traces = CounterValue("plan_traces_total");
  ASSERT_TRUE(planner.RunForward(batch3, image_indices, &out));
  EXPECT_FALSE(out.replayed);
  EXPECT_GT(CounterValue("plan_traces_total"), traces);

  // Both shapes are warm now: replays, zero new traces.
  traces = CounterValue("plan_traces_total");
  ASSERT_TRUE(planner.RunForward(batch4, image_indices, &out));
  EXPECT_TRUE(out.replayed);
  ASSERT_TRUE(planner.RunForward(batch3, image_indices, &out));
  EXPECT_TRUE(out.replayed);
  EXPECT_EQ(CounterValue("plan_traces_total"), traces);
}

TEST_F(StepPlanFixture, KernelTableChangeForcesRetrace) {
  CrossEmOptions opt = SoftOptions();
  CrossEm matcher(model_, &ds_->graph, tokenizer_, opt);
  FitStepPlanner planner(model_, matcher.soft_prompt(), &opt,
                         matcher.soft_prompt()->Parameters(),
                         matcher.EncodeImages(*images_));

  std::vector<graph::VertexId> batch(vertices_.begin(), vertices_.begin() + 4);
  std::vector<int64_t> image_indices{0, 1, 2, 3};
  FitStepPlanner::StepOutcome out;
  ASSERT_TRUE(planner.RunForward(batch, image_indices, &out));
  ASSERT_TRUE(planner.RunForward(batch, image_indices, &out));
  EXPECT_TRUE(out.replayed);

  // Swapping the process-wide GEMM kernel invalidates the traced plan:
  // the next step must re-trace (never replay closures recorded against
  // a different kernel table).
  const int64_t invalidations =
      CounterValue("plan_invalidations_kernel_table_total");
  ops::SetGemmKernel(ops::GemmKernel::kReference);
  ASSERT_TRUE(planner.RunForward(batch, image_indices, &out));
  EXPECT_FALSE(out.replayed);
  EXPECT_GT(CounterValue("plan_invalidations_kernel_table_total"),
            invalidations);

  // And the re-traced plan replays under the new table.
  ASSERT_TRUE(planner.RunForward(batch, image_indices, &out));
  EXPECT_TRUE(out.replayed);
}

}  // namespace
}  // namespace core
}  // namespace crossem
