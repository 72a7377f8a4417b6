// Whole-Fit contracts on one small world: a CrossEM+ run (MBG + NS + OPC)
// must train bitwise-identical prompt parameters and checkpoint bytes at
// 1 and 8 threads, and must peak below CrossEM w/ soft in tensor memory
// (the order of the paper's Table III memory column).
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/crossem.h"
#include "data/dataset.h"
#include "gtest/gtest.h"
#include "util/parallel.h"

namespace crossem {
namespace core {
namespace {

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

class FitFixture : public ::testing::Test {
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

  void SetUp() override { model_->RestoreParameters(*snapshot_); }
  void TearDown() override { SetNumThreads(0); }

  static CrossEmOptions PlusOptions() {
    CrossEmOptions opt = CrossEmPlusOptions();
    opt.epochs = 2;
    return opt;
  }

  /// One Fit from the snapshot; returns its stats, the final soft-prompt
  /// parameters and, when `ckpt_name` is non-empty, the checkpoint bytes.
  static FitStats RunFit(const CrossEmOptions& base,
                         const std::string& ckpt_name,
                         std::vector<std::vector<float>>* params,
                         std::string* ckpt) {
    model_->RestoreParameters(*snapshot_);
    CrossEmOptions opt = base;
    if (!ckpt_name.empty()) {
      opt.checkpoint_path = TempPath(ckpt_name);
      std::remove(opt.checkpoint_path.c_str());
    }
    CrossEm matcher(model_, &ds_->graph, tokenizer_, opt);
    auto fit = matcher.Fit(vertices_, *images_);
    EXPECT_TRUE(fit.ok()) << fit.status().message();
    if (params != nullptr) {
      for (const Tensor& p : matcher.soft_prompt()->Parameters()) {
        params->push_back(p.ToVector());
      }
    }
    if (ckpt != nullptr) *ckpt = ReadFileBytes(opt.checkpoint_path);
    return fit.ok() ? fit.value() : FitStats{};
  }

  static data::CrossModalDataset* ds_;
  static clip::ClipModel* model_;
  static text::Tokenizer* tokenizer_;
  static std::vector<Tensor>* snapshot_;
  static Tensor* images_;
  static std::vector<graph::VertexId> vertices_;
};

data::CrossModalDataset* FitFixture::ds_ = nullptr;
clip::ClipModel* FitFixture::model_ = nullptr;
text::Tokenizer* FitFixture::tokenizer_ = nullptr;
std::vector<Tensor>* FitFixture::snapshot_ = nullptr;
Tensor* FitFixture::images_ = nullptr;
std::vector<graph::VertexId> FitFixture::vertices_;

TEST_F(FitFixture, PlusFitBitwiseStableAcrossThreads) {
  std::vector<std::vector<float>> params_1t, params_8t;
  std::string ckpt_1t, ckpt_8t;
  SetNumThreads(1);
  const FitStats stats =
      RunFit(PlusOptions(), "plus_fit_1t.ckpt", &params_1t, &ckpt_1t);
  SetNumThreads(8);
  RunFit(PlusOptions(), "plus_fit_8t.ckpt", &params_8t, &ckpt_8t);

  // The run must actually step the prompt, or equality proves nothing.
  ASSERT_EQ(stats.epochs.size(), 2u);
  EXPECT_GT(stats.epochs[0].num_batches, 0);
  ASSERT_FALSE(params_1t.empty());
  ASSERT_FALSE(ckpt_1t.empty());
  EXPECT_EQ(params_1t, params_8t);
  EXPECT_EQ(ckpt_1t, ckpt_8t);
}

TEST_F(FitFixture, PlusFitPeaksBelowSoftFit) {
  // Table III: CrossEM+ trains in less memory than CrossEM w/ soft. MBG
  // trains on partition-sized batches, so its step graph is smaller than
  // the full split's, and nothing a Fit allocates may outlive that Fit.
  CrossEmOptions soft;
  soft.prompt_mode = PromptMode::kSoft;
  soft.epochs = 2;
  const FitStats soft_stats = RunFit(soft, "", nullptr, nullptr);
  const FitStats plus_stats = RunFit(PlusOptions(), "", nullptr, nullptr);
  ASSERT_GT(soft_stats.peak_bytes, 0);
  ASSERT_GT(plus_stats.peak_bytes, 0);
  EXPECT_LT(plus_stats.peak_bytes, soft_stats.peak_bytes);
  // Run order must not matter: a second CrossEM+ Fit peaks where the
  // first did.
  EXPECT_EQ(RunFit(PlusOptions(), "", nullptr, nullptr).peak_bytes,
            plus_stats.peak_bytes);
}

}  // namespace
}  // namespace core
}  // namespace crossem
