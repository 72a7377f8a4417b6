// Fault-tolerance drills for the CrossEM training loop: kill-and-resume
// checkpointing (bit-for-bit), the non-finite batch guard with rollback
// and retry, degenerate matching inputs, and checkpoint I/O failures
// injected mid-Fit.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "clip/pretrain.h"
#include "core/crossem.h"
#include "data/dataset.h"
#include "gtest/gtest.h"
#include "util/fault_injection.h"
#include "util/parallel.h"

namespace crossem {
namespace core {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

class FaultToleranceFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ds_ = new data::CrossModalDataset(
        data::BuildDataset(data::CubLikeConfig(0.5)));
    clip::ClipConfig cc;
    cc.vocab_size = ds_->vocab.size();
    cc.text_context = 48;
    cc.model_dim = 24;
    cc.text_layers = 1;
    cc.text_heads = 2;
    cc.image_layers = 1;
    cc.image_heads = 2;
    cc.patch_dim = ds_->world->config().patch_dim;
    cc.max_patches = 16;
    cc.embed_dim = 16;
    Rng rng(21);
    model_ = new clip::ClipModel(cc, &rng);
    tokenizer_ = new text::Tokenizer(&ds_->vocab, cc.text_context);

    clip::PretrainConfig pc;
    pc.epochs = 4;
    pc.batches_per_epoch = 8;
    pc.batch_size = 10;
    std::vector<int64_t> all(static_cast<size_t>(ds_->world->num_classes()));
    for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int64_t>(i);
    ASSERT_TRUE(
        clip::PretrainClip(model_, *ds_->world, all, *tokenizer_, pc).ok());
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
    fault::Clear();
    model_->RestoreParameters(*snapshot_);
  }
  void TearDown() override {
    fault::Clear();
    SetNumThreads(0);
  }

  static CrossEmOptions SoftOptions(int64_t epochs) {
    CrossEmOptions opt;
    opt.prompt_mode = PromptMode::kSoft;
    opt.epochs = epochs;
    return opt;
  }

  /// Snapshot of the trainable (soft prompt) parameters for bitwise
  /// comparisons.
  static std::vector<std::vector<float>> PromptValues(CrossEm* m) {
    std::vector<std::vector<float>> out;
    for (const Tensor& p : m->soft_prompt()->Parameters()) {
      out.push_back(p.ToVector());
    }
    return out;
  }

  /// A copy of the fixture images with image `index` (or all images when
  /// index < 0) poisoned with NaN patches. NaN propagates through the
  /// frozen image tower into the batch loss, so every mini-batch whose
  /// image chunk contains a poisoned image trips the non-finite guard.
  static Tensor PoisonedImages(int64_t index) {
    Tensor poisoned = images_->Clone();
    const int64_t per_image = poisoned.size(1) * poisoned.size(2);
    float* d = poisoned.data();
    const int64_t begin = index < 0 ? 0 : index * per_image;
    const int64_t end = index < 0 ? poisoned.numel() : begin + per_image;
    for (int64_t i = begin; i < end; ++i) d[i] = NAN;
    return poisoned;
  }

  /// The acceptance drill: a 4-epoch reference run, a run killed after
  /// epoch 2 (simulated by epochs=2 with checkpointing on), and a fresh
  /// process resuming from the checkpoint must agree bitwise — per-epoch
  /// losses and final parameters.
  void RunKillResumeDrill(int threads, const char* ckpt_name) {
    SetNumThreads(threads);
    const std::string ckpt = TempPath(ckpt_name);
    std::remove(ckpt.c_str());

    // Uninterrupted reference.
    model_->RestoreParameters(*snapshot_);
    CrossEm ref(model_, &ds_->graph, tokenizer_, SoftOptions(4));
    auto full = ref.Fit(vertices_, *images_);
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    ASSERT_EQ(full.value().epochs.size(), 4u);
    const std::vector<std::vector<float>> ref_params = PromptValues(&ref);

    // "Killed" after two epochs: same options plus checkpointing.
    model_->RestoreParameters(*snapshot_);
    CrossEmOptions part = SoftOptions(2);
    part.checkpoint_path = ckpt;
    CrossEm first(model_, &ds_->graph, tokenizer_, part);
    auto head = first.Fit(vertices_, *images_);
    ASSERT_TRUE(head.ok()) << head.status().ToString();
    EXPECT_EQ(head.value().epochs[0].loss, full.value().epochs[0].loss);
    EXPECT_EQ(head.value().epochs[1].loss, full.value().epochs[1].loss);
    ASSERT_TRUE(io::FileExists(ckpt));

    // A fresh matcher in a "restarted process" resumes from the
    // checkpoint and finishes epochs 2..3.
    model_->RestoreParameters(*snapshot_);
    CrossEmOptions rest = SoftOptions(4);
    rest.checkpoint_path = ckpt;
    rest.resume = true;
    CrossEm second(model_, &ds_->graph, tokenizer_, rest);
    auto tail = second.Fit(vertices_, *images_);
    ASSERT_TRUE(tail.ok()) << tail.status().ToString();
    ASSERT_EQ(tail.value().epochs.size(), 2u);
    EXPECT_EQ(tail.value().epochs[0].loss, full.value().epochs[2].loss);
    EXPECT_EQ(tail.value().epochs[1].loss, full.value().epochs[3].loss);
    EXPECT_EQ(PromptValues(&second), ref_params);

    EXPECT_FALSE(io::FileExists(ckpt + ".tmp"));
    std::remove(ckpt.c_str());
  }

  static data::CrossModalDataset* ds_;
  static clip::ClipModel* model_;
  static text::Tokenizer* tokenizer_;
  static std::vector<Tensor>* snapshot_;
  static Tensor* images_;
  static std::vector<graph::VertexId> vertices_;
};

data::CrossModalDataset* FaultToleranceFixture::ds_ = nullptr;
clip::ClipModel* FaultToleranceFixture::model_ = nullptr;
text::Tokenizer* FaultToleranceFixture::tokenizer_ = nullptr;
std::vector<Tensor>* FaultToleranceFixture::snapshot_ = nullptr;
Tensor* FaultToleranceFixture::images_ = nullptr;
std::vector<graph::VertexId> FaultToleranceFixture::vertices_;

TEST_F(FaultToleranceFixture, KillAndResumeIsBitwiseIdenticalOneThread) {
  RunKillResumeDrill(1, "resume_1thread.ckpt");
}

TEST_F(FaultToleranceFixture, KillAndResumeIsBitwiseIdenticalEightThreads) {
  RunKillResumeDrill(8, "resume_8threads.ckpt");
}

TEST_F(FaultToleranceFixture, ResumeStartsFreshWhenCheckpointMissing) {
  const std::string ckpt = TempPath("resume_missing.ckpt");
  std::remove(ckpt.c_str());
  CrossEmOptions opt = SoftOptions(1);
  opt.checkpoint_path = ckpt;
  opt.resume = true;
  CrossEm m(model_, &ds_->graph, tokenizer_, opt);
  auto stats = m.Fit(vertices_, *images_);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.value().epochs.size(), 1u);
  EXPECT_TRUE(io::FileExists(ckpt));
  std::remove(ckpt.c_str());
}

TEST_F(FaultToleranceFixture, FitValidatesFaultToleranceOptions) {
  struct Case {
    const char* name;
    void (*tweak)(CrossEmOptions*);
  };
  const Case cases[] = {
      {"resume without path", [](CrossEmOptions* o) { o->resume = true; }},
      {"zero cadence",
       [](CrossEmOptions* o) { o->checkpoint_every_epochs = 0; }},
      {"fraction > 1",
       [](CrossEmOptions* o) { o->max_bad_batch_fraction = 1.5f; }},
      {"negative retries",
       [](CrossEmOptions* o) { o->max_epoch_retries = -1; }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    CrossEmOptions opt = SoftOptions(1);
    c.tweak(&opt);
    CrossEm m(model_, &ds_->graph, tokenizer_, opt);
    auto stats = m.Fit(vertices_, *images_);
    ASSERT_FALSE(stats.ok());
    EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST_F(FaultToleranceFixture, NonFiniteBatchesAreSkippedAndCounted) {
  // One poisoned image out of many: only the mini-batches holding it go
  // bad, so training completes while the guard counts the skips.
  ASSERT_GT(images_->size(0), 16) << "need > 1 image chunk for this drill";
  CrossEmOptions opt = SoftOptions(1);
  opt.max_bad_batch_fraction = 1.0f;  // never roll back here
  CrossEm m(model_, &ds_->graph, tokenizer_, opt);
  auto stats = m.Fit(vertices_, PoisonedImages(0));
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const EpochStats& es = stats.value().epochs.at(0);
  EXPECT_GT(es.bad_batches, 0);
  EXPECT_GT(es.num_batches, 0);
  EXPECT_EQ(es.retries, 0);
  EXPECT_TRUE(std::isfinite(es.loss));
}

TEST_F(FaultToleranceFixture, DivergedEpochRollsBackAndExhaustsRetries) {
  // Every image poisoned: every batch is bad, every attempt diverges.
  CrossEmOptions opt = SoftOptions(1);
  opt.max_bad_batch_fraction = 0.0f;  // any bad batch triggers rollback
  opt.max_epoch_retries = 1;
  CrossEm m(model_, &ds_->graph, tokenizer_, opt);
  const std::vector<std::vector<float>> before = PromptValues(&m);
  auto stats = m.Fit(vertices_, PoisonedImages(-1));
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kInternal);
  EXPECT_NE(stats.status().ToString().find("diverged"), std::string::npos)
      << stats.status().ToString();
  EXPECT_NE(stats.status().ToString().find("1 retries"), std::string::npos)
      << stats.status().ToString();
  // The rollback ran before the error surfaced: nothing of the failed
  // attempts survives in the parameters, and the model is back in
  // inference mode for its other users.
  EXPECT_EQ(PromptValues(&m), before);
  EXPECT_TRUE(model_->text().Parameters()[0].requires_grad());
  EXPECT_TRUE(model_->image().Parameters()[0].requires_grad());
}

TEST_F(FaultToleranceFixture, DegenerateMatchingInputsYieldNoMatches) {
  CrossEmOptions opt;
  CrossEm m(model_, &ds_->graph, tokenizer_, opt);
  const Tensor zero_rows =
      Tensor::Zeros({0, images_->size(1), images_->size(2)});
  EXPECT_TRUE(m.FindMatches({}, *images_).empty());
  EXPECT_TRUE(m.FindMatches(vertices_, Tensor()).empty());
  EXPECT_TRUE(m.FindMatches(vertices_, zero_rows).empty());
  EXPECT_TRUE(m.FindMutualMatches({}, *images_).empty());
  EXPECT_TRUE(m.FindMutualMatches(vertices_, Tensor()).empty());
  EXPECT_TRUE(m.FindMutualMatches(vertices_, zero_rows).empty());
}

TEST_F(FaultToleranceFixture, ZeroImagesEncodeToAnEmptyBank) {
  CrossEm m(model_, &ds_->graph, tokenizer_, CrossEmOptions{});
  const Tensor zero_rows =
      Tensor::Zeros({0, images_->size(1), images_->size(2)});
  const Tensor bank = m.EncodeImages(zero_rows);
  EXPECT_EQ(bank.shape(), (Shape{0, model_->config().embed_dim}));
  const Tensor scores = m.ScoreMatrix(vertices_, zero_rows);
  EXPECT_EQ(scores.shape(),
            (Shape{static_cast<int64_t>(vertices_.size()), 0}));
}

TEST_F(FaultToleranceFixture, CheckpointSaveFaultFailsFitCleanly) {
  const std::string ckpt = TempPath("fit_ckpt_fault.ckpt");
  std::remove(ckpt.c_str());
  CrossEmOptions opt = SoftOptions(1);
  opt.checkpoint_path = ckpt;
  CrossEm m(model_, &ds_->graph, tokenizer_, opt);
  fault::FailOn(fault::FileOp::kWrite, 1);
  auto stats = m.Fit(vertices_, *images_);
  fault::Clear();
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kIOError);
  EXPECT_NE(stats.status().ToString().find(ckpt), std::string::npos)
      << stats.status().ToString();
  EXPECT_FALSE(io::FileExists(ckpt + ".tmp"));
  EXPECT_FALSE(io::FileExists(ckpt));
  // The failed save must not leave the model stuck in training mode.
  EXPECT_TRUE(model_->text().Parameters()[0].requires_grad());

  // With the fault gone the same Fit checkpoints fine.
  model_->RestoreParameters(*snapshot_);
  CrossEm retry(model_, &ds_->graph, tokenizer_, opt);
  ASSERT_TRUE(retry.Fit(vertices_, *images_).ok());
  EXPECT_TRUE(io::FileExists(ckpt));
  std::remove(ckpt.c_str());
}

}  // namespace
}  // namespace core
}  // namespace crossem
