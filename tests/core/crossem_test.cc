// Integration tests for the CrossEM matcher: fitting mechanics, stats
// telemetry, matching output, and the CrossEM+ efficiency property.
#include "core/crossem.h"

#include <set>
#include <string>
#include <vector>

#include "clip/pretrain.h"
#include "data/dataset.h"
#include "eval/metrics.h"
#include "gtest/gtest.h"
#include "tensor/ops.h"
#include "text/tokenizer.h"
#include "util/parallel.h"

namespace crossem {
namespace core {
namespace {

class CrossEmFixture : public ::testing::Test {
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
    pc.epochs = 6;  // light: enough for non-degenerate embeddings
    pc.batches_per_epoch = 10;
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

  void SetUp() override { model_->RestoreParameters(*snapshot_); }

  static data::CrossModalDataset* ds_;
  static clip::ClipModel* model_;
  static text::Tokenizer* tokenizer_;
  static std::vector<Tensor>* snapshot_;
  static Tensor* images_;
  static std::vector<graph::VertexId> vertices_;
};

data::CrossModalDataset* CrossEmFixture::ds_ = nullptr;
clip::ClipModel* CrossEmFixture::model_ = nullptr;
text::Tokenizer* CrossEmFixture::tokenizer_ = nullptr;
std::vector<Tensor>* CrossEmFixture::snapshot_ = nullptr;
Tensor* CrossEmFixture::images_ = nullptr;
std::vector<graph::VertexId> CrossEmFixture::vertices_;

TEST_F(CrossEmFixture, EncodeVerticesShapes) {
  for (PromptMode mode :
       {PromptMode::kBaseline, PromptMode::kHard, PromptMode::kSoft}) {
    CrossEmOptions opt;
    opt.prompt_mode = mode;
    CrossEm m(model_, &ds_->graph, tokenizer_, opt);
    Tensor e = m.EncodeVertices(vertices_);
    EXPECT_EQ(e.size(0), static_cast<int64_t>(vertices_.size()));
    EXPECT_EQ(e.size(1), model_->config().embed_dim);
  }
}

TEST_F(CrossEmFixture, ScoreMatrixShape) {
  CrossEmOptions opt;
  CrossEm m(model_, &ds_->graph, tokenizer_, opt);
  Tensor s = m.ScoreMatrix(vertices_, *images_);
  EXPECT_EQ(s.size(0), static_cast<int64_t>(vertices_.size()));
  EXPECT_EQ(s.size(1), images_->size(0));
}

TEST_F(CrossEmFixture, DiscreteModesDoNotTrain) {
  for (PromptMode mode : {PromptMode::kBaseline, PromptMode::kHard}) {
    CrossEmOptions opt;
    opt.prompt_mode = mode;
    opt.epochs = 3;
    CrossEm m(model_, &ds_->graph, tokenizer_, opt);
    auto stats = m.Fit(vertices_, *images_);
    ASSERT_TRUE(stats.ok());
    EXPECT_TRUE(stats.value().epochs.empty());
    EXPECT_EQ(stats.value().AvgEpochSeconds(), 0.0);
  }
}

TEST_F(CrossEmFixture, SoftFitRunsAndReportsStats) {
  CrossEmOptions opt;
  opt.prompt_mode = PromptMode::kSoft;
  opt.epochs = 2;
  CrossEm m(model_, &ds_->graph, tokenizer_, opt);
  auto stats = m.Fit(vertices_, *images_);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_EQ(stats.value().epochs.size(), 2u);
  for (const auto& e : stats.value().epochs) {
    EXPECT_GT(e.num_batches, 0);
    EXPECT_GT(e.seconds, 0.0);
    EXPECT_GT(e.peak_bytes, 0);
  }
  EXPECT_GT(stats.value().total_seconds, 0.0);
}

TEST_F(CrossEmFixture, FitKeepsFrozenTowersIntact) {
  std::vector<float> image_param_before =
      model_->image().Parameters()[0].ToVector();
  float temp_before = model_->Temperature().item();
  CrossEmOptions opt;
  opt.prompt_mode = PromptMode::kSoft;
  opt.epochs = 1;
  CrossEm m(model_, &ds_->graph, tokenizer_, opt);
  ASSERT_TRUE(m.Fit(vertices_, *images_).ok());
  EXPECT_EQ(model_->image().Parameters()[0].ToVector(), image_param_before);
  EXPECT_FLOAT_EQ(model_->Temperature().item(), temp_before);
  // requires_grad restored for later users.
  EXPECT_TRUE(model_->image().Parameters()[0].requires_grad());
  EXPECT_TRUE(model_->text().Parameters()[0].requires_grad());
}

TEST_F(CrossEmFixture, FitWithFrozenTextDoesNotChangeTextTower) {
  std::vector<float> text_param_before =
      model_->text().Parameters()[0].ToVector();
  CrossEmOptions opt;
  opt.prompt_mode = PromptMode::kSoft;
  opt.epochs = 1;
  CrossEm m(model_, &ds_->graph, tokenizer_, opt);
  ASSERT_TRUE(m.Fit(vertices_, *images_).ok());
  EXPECT_EQ(model_->text().Parameters()[0].ToVector(), text_param_before);
}

TEST_F(CrossEmFixture, TuneTextEncoderOptionChangesTextTower) {
  std::vector<float> text_param_before =
      model_->text().Parameters()[0].ToVector();
  CrossEmOptions opt;
  opt.prompt_mode = PromptMode::kSoft;
  opt.epochs = 1;
  opt.tune_text_encoder = true;
  CrossEm m(model_, &ds_->graph, tokenizer_, opt);
  ASSERT_TRUE(m.Fit(vertices_, *images_).ok());
  EXPECT_NE(model_->text().Parameters()[0].ToVector(), text_param_before);
}

TEST_F(CrossEmFixture, CrossEmPlusFitRuns) {
  CrossEmOptions opt = CrossEmPlusOptions();
  opt.epochs = 2;
  CrossEm m(model_, &ds_->graph, tokenizer_, opt);
  auto stats = m.Fit(vertices_, *images_);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.value().epochs.size(), 2u);
}

TEST_F(CrossEmFixture, CrossEmPlusTrainsFewerPairsThanFullSplit) {
  // The full split processes the entire candidate set |V| x |I| per
  // epoch; MBG prunes and localizes, so CrossEM+ must touch fewer
  // candidate pairs (Sec. IV-A).
  CrossEmOptions plain;
  plain.prompt_mode = PromptMode::kSoft;
  plain.epochs = 1;
  CrossEm m1(model_, &ds_->graph, tokenizer_, plain);
  auto s1 = m1.Fit(vertices_, *images_);
  ASSERT_TRUE(s1.ok());
  EXPECT_EQ(s1.value().epochs[0].num_pairs,
            static_cast<int64_t>(vertices_.size()) * images_->size(0));

  model_->RestoreParameters(*snapshot_);
  CrossEmOptions plus = CrossEmPlusOptions();
  plus.epochs = 1;
  // Disable negative-sampling padding so the comparison isolates MBG.
  plus.use_negative_sampling = false;
  CrossEm m2(model_, &ds_->graph, tokenizer_, plus);
  auto s2 = m2.Fit(vertices_, *images_);
  ASSERT_TRUE(s2.ok());

  EXPECT_LT(s2.value().epochs[0].num_pairs, s1.value().epochs[0].num_pairs);
}

TEST_F(CrossEmFixture, FindMatchesReturnsTopImagePerVertex) {
  CrossEmOptions opt;
  CrossEm m(model_, &ds_->graph, tokenizer_, opt);
  auto pairs = m.FindMatches(vertices_, *images_);
  EXPECT_EQ(pairs.size(), vertices_.size());
  Tensor prob = model_->MatchingProbability(m.EncodeVertices(vertices_),
                                            m.EncodeImages(*images_));
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(pairs[i].vertex, vertices_[i]);
    EXPECT_GE(pairs[i].image, 0);
    EXPECT_LT(pairs[i].image, images_->size(0));
    // Score equals the row max of the probability matrix.
    float row_max = 0;
    for (int64_t c = 0; c < prob.size(1); ++c) {
      row_max = std::max(row_max,
                         prob.at(static_cast<int64_t>(i) * prob.size(1) + c));
    }
    EXPECT_NEAR(pairs[i].score, row_max, 1e-5f);
  }
}

TEST_F(CrossEmFixture, ImageBankRowsMatchBatchForwardBitwise) {
  // Fit encodes its candidate images once and gathers each step's rows
  // from that bank. A gathered batch must be bitwise what the frozen tower
  // gives the same batch directly — with repeated images, and with
  // lengths off the GEMM's 4-row tile edge — at any thread count.
  CrossEm m(model_, &ds_->graph, tokenizer_, CrossEmOptions{});
  const int64_t n = images_->size(0);
  Rng rng(5);
  for (int threads : {1, 8}) {
    SetNumThreads(threads);
    const Tensor bank = m.EncodeImages(*images_);
    for (int64_t len : {3, 7, 13, 30}) {
      SCOPED_TRACE(::testing::Message()
                   << threads << " threads, " << len << " images");
      std::vector<int64_t> idx;
      for (int64_t i = 0; i + 1 < len; ++i) {
        idx.push_back(rng.UniformInt(0, n - 1));
      }
      idx.push_back(idx.front());
      std::vector<Tensor> rows;
      for (int64_t i : idx) {
        rows.push_back(ops::Reshape(ops::Slice(*images_, 0, i, i + 1),
                                    {images_->size(1), images_->size(2)}));
      }
      NoGradGuard guard;
      const Tensor direct = model_->image().Forward(ops::Stack(rows));
      EXPECT_EQ(ops::IndexSelect(bank, idx).ToVector(), direct.ToVector());
    }
  }
  SetNumThreads(0);
}

TEST_F(CrossEmFixture, LabelBankRowsMatchPerBatchSummaryBitwise) {
  // With the text tower frozen, Fit builds every vertex's label summary
  // h(l_v) once and each step gathers its rows. Gathered rows must be
  // bitwise the per-batch summary, and Generate() with the bank bitwise
  // Generate() without it: for repeated ids, one- and multi-word labels,
  // and labels that tokenize to kUnk only, at any thread count.
  std::string multi_word;
  for (graph::VertexId v = 0; v < ds_->graph.NumVertices(); ++v) {
    const std::string& label = ds_->graph.VertexLabel(v);
    if (text::SplitWords(label).size() >= 2) {
      multi_word = label;
      break;
    }
  }
  ASSERT_FALSE(multi_word.empty());
  const std::string one_word = text::SplitWords(multi_word).front();
  ASSERT_NE(ds_->vocab.Id(one_word), text::Vocabulary::kUnk);
  graph::Graph g;
  const graph::VertexId multi = g.AddVertex(multi_word);
  const graph::VertexId one = g.AddVertex(one_word);
  const graph::VertexId unknown = g.AddVertex("zzqx vvkw");  // not in vocab
  const graph::VertexId no_words = g.AddVertex("--");        // splits to {}
  ASSERT_TRUE(g.AddEdge(multi, one, "has trait").ok());
  ASSERT_EQ(ds_->vocab.Id("zzqx"), text::Vocabulary::kUnk);

  Rng rng(8);
  SoftPromptGenerator gen(&g, &model_->text(), tokenizer_, SoftPromptOptions{},
                          &rng);
  const Tensor bank = gen.BuildLabelSummaryTable();
  ASSERT_EQ(bank.size(0), g.NumVertices());
  const std::vector<std::vector<graph::VertexId>> batches = {
      {multi, one, unknown, no_words},
      {unknown},
      {one, one, multi},
      {no_words, multi, no_words, unknown, one}};
  for (int threads : {1, 8}) {
    SetNumThreads(threads);
    for (const auto& batch : batches) {
      SCOPED_TRACE(::testing::Message() << threads << " threads, batch of "
                                        << batch.size());
      NoGradGuard guard;
      EXPECT_EQ(ops::IndexSelect(bank, batch).ToVector(),
                gen.LabelSummary(batch).ToVector());
      EXPECT_EQ(gen.Generate(batch, bank).embeddings.ToVector(),
                gen.Generate(batch).embeddings.ToVector());
    }
  }
  SetNumThreads(0);
}

TEST_F(CrossEmFixture, FindMutualMatchesIsSubsetOfFindMatches) {
  CrossEmOptions opt;
  CrossEm m(model_, &ds_->graph, tokenizer_, opt);
  auto all = m.FindMatches(vertices_, *images_);
  auto mutual = m.FindMutualMatches(vertices_, *images_);
  EXPECT_LE(mutual.size(), all.size());
  // Every mutual pair appears in the full match set with the same image.
  for (const auto& mp : mutual) {
    bool found = false;
    for (const auto& ap : all) {
      if (ap.vertex == mp.vertex) {
        EXPECT_EQ(ap.image, mp.image);
        found = true;
      }
    }
    EXPECT_TRUE(found);
  }
  // No image appears twice among mutual matches (mutuality is 1:1).
  std::set<int64_t> images_seen;
  for (const auto& mp : mutual) {
    EXPECT_TRUE(images_seen.insert(mp.image).second);
  }
}

TEST_F(CrossEmFixture, FindMatchesThresholdFilters) {
  CrossEmOptions opt;
  CrossEm m(model_, &ds_->graph, tokenizer_, opt);
  auto all_pairs = m.FindMatches(vertices_, *images_, 0.0f);
  auto none = m.FindMatches(vertices_, *images_, 1.1f);
  EXPECT_EQ(all_pairs.size(), vertices_.size());
  EXPECT_TRUE(none.empty());
}

TEST_F(CrossEmFixture, FitRejectsBadInputs) {
  CrossEmOptions opt;
  opt.prompt_mode = PromptMode::kSoft;
  CrossEm m(model_, &ds_->graph, tokenizer_, opt);
  EXPECT_FALSE(m.Fit({}, *images_).ok());
  EXPECT_FALSE(m.Fit(vertices_, Tensor()).ok());
  EXPECT_FALSE(m.Fit({99999}, *images_).ok());
}

TEST_F(CrossEmFixture, SoftTuningImprovesPseudoObjective) {
  CrossEmOptions opt;
  opt.prompt_mode = PromptMode::kSoft;
  opt.epochs = 4;
  opt.learning_rate = 5e-3f;
  CrossEm m(model_, &ds_->graph, tokenizer_, opt);
  auto stats = m.Fit(vertices_, *images_);
  ASSERT_TRUE(stats.ok());
  // The tuning objective itself must improve.
  EXPECT_LT(stats.value().epochs.back().loss,
            stats.value().epochs.front().loss);
}

}  // namespace
}  // namespace core
}  // namespace crossem
