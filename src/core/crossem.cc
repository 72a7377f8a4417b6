#include "core/crossem.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>

#include "core/losses.h"
#include "eval/topk.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "util/crc32.h"
#include "tensor/ops.h"
#include "util/fault_injection.h"
#include "util/logging.h"
#include "util/memory_tracker.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace crossem {
namespace core {

CrossEmOptions CrossEmPlusOptions() {
  CrossEmOptions opt;
  opt.prompt_mode = PromptMode::kSoft;
  opt.use_mini_batch_generation = true;
  opt.use_negative_sampling = true;
  opt.use_orthogonal_constraint = true;
  return opt;
}

double FitStats::AvgEpochSeconds() const {
  if (epochs.empty()) return 0.0;
  double total = 0.0;
  for (const auto& e : epochs) total += e.seconds;
  return total / static_cast<double>(epochs.size());
}

float FitStats::FinalLoss() const {
  return epochs.empty() ? 0.0f : epochs.back().loss;
}

CrossEm::CrossEm(clip::ClipModel* model, const graph::Graph* graph,
                 const text::Tokenizer* tokenizer, CrossEmOptions options)
    : model_(model),
      graph_(graph),
      tokenizer_(tokenizer),
      options_(options),
      rng_(options.seed),
      hard_gen_(graph, options.hard) {
  CROSSEM_CHECK(model != nullptr);
  CROSSEM_CHECK(graph != nullptr);
  CROSSEM_CHECK(tokenizer != nullptr);
  if (options_.prompt_mode == PromptMode::kSoft) {
    soft_gen_ = std::make_unique<SoftPromptGenerator>(
        graph, &model->text(), tokenizer, options_.soft, &rng_);
  }
}

Tensor CrossEm::EncodeVerticesForTraining(
    const std::vector<graph::VertexId>& vertices,
    const Tensor& label_bank) const {
  CROSSEM_CHECK(!vertices.empty());
  if (options_.prompt_mode == PromptMode::kSoft) {
    SoftPromptGenerator::PromptBatch batch =
        soft_gen_->Generate(vertices, label_bank);
    return model_->text().ForwardFromEmbeddings(batch.embeddings, batch.mask);
  }
  std::vector<std::string> prompts;
  prompts.reserve(vertices.size());
  for (graph::VertexId v : vertices) {
    prompts.push_back(options_.prompt_mode == PromptMode::kHard
                          ? hard_gen_.Generate(v)
                          : hard_gen_.BaselinePrompt(v));
  }
  return model_->text().Forward(tokenizer_->EncodeBatch(prompts));
}

Tensor CrossEm::EncodeVertices(
    const std::vector<graph::VertexId>& vertices) const {
  NoGradGuard guard;
  return EncodeVerticesForTraining(vertices, Tensor());
}

Tensor CrossEm::EncodeImages(const Tensor& images) const {
  NoGradGuard guard;
  CROSSEM_CHECK_EQ(images.dim(), 3);
  const int64_t n = images.size(0);
  if (n == 0) return Tensor::Zeros({0, model_->config().embed_dim});
  const int64_t chunk = 64;
  std::vector<Tensor> chunks(static_cast<size_t>(NumChunks(0, n, chunk)));
  // Chunks are independent inference forwards over the frozen image
  // tower; spread them across the pool. Workers default to grad-on, so
  // each chunk opens its own no-grad scope.
  ParallelForChunks(0, n, chunk, [&](int64_t c, int64_t start, int64_t end) {
    NoGradGuard chunk_guard;
    chunks[static_cast<size_t>(c)] =
        model_->image().Forward(ops::Slice(images, 0, start, end));
  });
  return ops::Concat(chunks, 0);
}

Tensor CrossEm::ScoreMatrix(const std::vector<graph::VertexId>& vertices,
                            const Tensor& images) const {
  NoGradGuard guard;
  Tensor v = EncodeVertices(vertices);
  Tensor i = EncodeImages(images);
  return clip::ClipModel::SimilarityMatrix(v, i);
}

float CrossEm::Temperature() const {
  NoGradGuard guard;
  return model_->Temperature().item();
}

std::vector<MatchingPair> CrossEm::FindMatches(
    const std::vector<graph::VertexId>& vertices, const Tensor& images,
    float min_probability) const {
  // With no vertices or no images the matching set is trivially empty;
  // without this guard the best-image scan below would index into an
  // empty probability row.
  if (vertices.empty() || !images.defined() || images.dim() != 3 ||
      images.size(0) == 0) {
    return {};
  }
  NoGradGuard guard;
  Tensor v = EncodeVertices(vertices);
  Tensor i = EncodeImages(images);
  Tensor prob = model_->MatchingProbability(v, i);  // [Nv, Ni], Eq. 4
  // Shared ranking kernel (eval/topk.h): k = 1 with its lower-index
  // tie-break reproduces the original strictly-greater argmax scan.
  std::vector<std::vector<eval::ScoredId>> best = eval::TopKRows(prob, 1);
  std::vector<MatchingPair> out;
  for (size_t row = 0; row < vertices.size(); ++row) {
    if (best[row].front().score >= min_probability) {
      out.push_back(MatchingPair{vertices[row], best[row].front().id,
                                 best[row].front().score});
    }
  }
  return out;
}

std::vector<MatchingPair> CrossEm::FindMutualMatches(
    const std::vector<graph::VertexId>& vertices,
    const Tensor& images) const {
  if (vertices.empty() || !images.defined() || images.dim() != 3 ||
      images.size(0) == 0) {
    return {};
  }
  NoGradGuard guard;
  Tensor v = EncodeVertices(vertices);
  Tensor i = EncodeImages(images);
  Tensor prob = model_->MatchingProbability(v, i);
  Tensor sim = clip::ClipModel::SimilarityMatrix(v, i);
  // Both directions' best-match scans ride the shared top-k kernel; the
  // lower-index tie-break matches ops::ArgMax's first-maximum scan.
  std::vector<std::vector<eval::ScoredId>> v2i = eval::TopKRows(sim, 1);
  std::vector<std::vector<eval::ScoredId>> i2v =
      eval::TopKRows(ops::Transpose(sim, 0, 1), 1);
  std::vector<MatchingPair> out;
  const int64_t ni = prob.size(1);
  for (size_t row = 0; row < vertices.size(); ++row) {
    const int64_t img = v2i[row].front().id;
    if (i2v[static_cast<size_t>(img)].front().id ==
        static_cast<int64_t>(row)) {
      out.push_back(MatchingPair{
          vertices[row], img,
          prob.at(static_cast<int64_t>(row) * ni + img)});
    }
  }
  return out;
}

uint32_t CrossEm::EncoderFingerprint() const {
  const uint32_t mode = static_cast<uint32_t>(options_.prompt_mode);
  uint32_t crc = Crc32Update(0, &mode, sizeof(mode));
  const uint32_t text_fp = nn::ModuleFingerprint(model_->text());
  crc = Crc32Update(crc, &text_fp, sizeof(text_fp));
  if (soft_gen_) {
    const uint32_t soft_fp = nn::ModuleFingerprint(*soft_gen_);
    crc = Crc32Update(crc, &soft_fp, sizeof(soft_fp));
  }
  return crc;
}

std::vector<Tensor> CrossEm::TrainableParameters() const {
  std::vector<Tensor> params;
  if (options_.tune_text_encoder) {
    for (Tensor p : model_->text().Parameters()) params.push_back(p);
  }
  if (soft_gen_) {
    for (Tensor p : soft_gen_->Parameters()) params.push_back(p);
  }
  return params;
}

std::vector<std::pair<std::string, Tensor>> CrossEm::NamedTrainableParameters()
    const {
  // Must enumerate in exactly the TrainableParameters() order: the AdamW
  // moment slots saved in a checkpoint are indexed by position.
  std::vector<std::pair<std::string, Tensor>> named;
  if (options_.tune_text_encoder) {
    for (auto& [n, p] : model_->text().NamedParameters()) {
      named.emplace_back("model.text." + n, p);
    }
  }
  if (soft_gen_) {
    for (auto& [n, p] : soft_gen_->NamedParameters()) {
      named.emplace_back("soft_prompt." + n, p);
    }
  }
  return named;
}

Result<FitStats> CrossEm::Fit(const std::vector<graph::VertexId>& vertices,
                              const Tensor& images) {
  if (vertices.empty()) return Status::InvalidArgument("no vertices to fit");
  if (!images.defined() || images.dim() != 3 || images.size(0) == 0) {
    return Status::InvalidArgument("images must be a [N, P, patch_dim] tensor");
  }
  for (graph::VertexId v : vertices) {
    if (v < 0 || v >= graph_->NumVertices()) {
      return Status::OutOfRange("vertex id out of range");
    }
  }
  if (options_.resume && options_.checkpoint_path.empty()) {
    return Status::InvalidArgument("resume requires a checkpoint_path");
  }
  if (options_.checkpoint_every_epochs < 1) {
    return Status::InvalidArgument("checkpoint_every_epochs must be >= 1");
  }
  if (options_.max_bad_batch_fraction < 0.0f ||
      options_.max_bad_batch_fraction > 1.0f) {
    return Status::InvalidArgument(
        "max_bad_batch_fraction must be within [0, 1]");
  }
  if (options_.max_epoch_retries < 0) {
    return Status::InvalidArgument("max_epoch_retries must be >= 0");
  }

  // Discrete prompt modes have no trainable prompt parameters: matching
  // runs zero-shot on the frozen pre-trained model.
  std::vector<Tensor> params = TrainableParameters();
  if (params.empty()) {
    if (options_.prompt_mode == PromptMode::kSoft) {
      return Status::Internal("soft prompt generator exposed no parameters");
    }
    return FitStats{};
  }

  // Freeze per paper Sec. II-C: image tower and the contrastive head
  // (temperature) stay fixed; prompt-side parameters train.
  model_->SetTraining(true);
  model_->image().SetRequiresGrad(false);
  if (!options_.tune_text_encoder) {
    model_->text().SetRequiresGrad(false);
  }
  nn::AdamW optimizer(params, options_.learning_rate);

  // Whatever path Fit exits through — success, checkpoint I/O failure,
  // retry exhaustion — the shared model must come back in inference mode
  // with requires_grad restored for its other users.
  struct ModeRestore {
    CrossEm* self;
    ~ModeRestore() {
      self->model_->SetTraining(false);
      self->model_->image().SetRequiresGrad(true);
      if (!self->options_.tune_text_encoder) {
        self->model_->text().SetRequiresGrad(true);
      }
    }
  } mode_restore{this};

  // The frozen image tower maps each candidate image to the same
  // embedding on every step, so encode them once. Row i of the bank is
  // bitwise the tower's output for image i in any batch: every op in the
  // tower is row-independent, and GEMM accumulates each row in the same
  // order whatever its tile or thread.
  const Tensor image_bank = EncodeImages(images);
  // The text-side twin: with the token table frozen, each vertex's label
  // summary h(l_v) is a constant too. A tuned text tower changes the table
  // every step, so it keeps the per-batch summary.
  Tensor label_bank;
  if (soft_gen_ && !options_.tune_text_encoder) {
    label_bank = soft_gen_->BuildLabelSummaryTable();
  }

  FitStats stats;
  MemoryTracker::Instance().ResetPeak();
  Timer total_timer;

  MiniBatchGenerator generator(model_, graph_, tokenizer_, options_.pcp);
  Tensor proximity;

  // ---- Resume (bit-for-bit) ----
  // The checkpoint restores everything an uninterrupted run would carry
  // into epoch k: parameters, AdamW moments/step, the data-order RNG, the
  // (possibly backed-off) learning rate, and the proximity matrix — which
  // must be reloaded, not recomputed, because an uninterrupted run builds
  // it once from the pre-tuning encoders.
  const bool checkpointing = !options_.checkpoint_path.empty();
  const std::vector<std::pair<std::string, Tensor>> named_params =
      NamedTrainableParameters();
  int64_t start_epoch = 0;
  if (checkpointing && options_.resume &&
      io::FileExists(options_.checkpoint_path)) {
    nn::TrainState train_state;
    CROSSEM_RETURN_NOT_OK(nn::LoadTrainState(named_params, &train_state,
                                             options_.checkpoint_path));
    CROSSEM_RETURN_NOT_OK(optimizer.ImportState(train_state.optimizer));
    CROSSEM_RETURN_NOT_OK(rng_.LoadState(train_state.rng_state));
    optimizer.set_learning_rate(train_state.learning_rate);
    proximity = train_state.proximity;
    start_epoch = train_state.next_epoch;
    if (options_.use_mini_batch_generation && !proximity.defined()) {
      return Status::InvalidArgument(
          "checkpoint '" + options_.checkpoint_path +
          "' lacks the proximity matrix mini-batch generation needs");
    }
    CROSSEM_LOG(Info) << "resumed from '" << options_.checkpoint_path
                      << "' at epoch " << start_epoch;
  }

  // PCP phases 1-2 are data preprocessing (paper Fig. 5): the property
  // closeness and proximity matrices are computed once, under the frozen
  // pre-trained encoders, and reused across epochs.
  if (options_.use_mini_batch_generation && !proximity.defined()) {
    proximity = generator.ComputeProximity(vertices, images);
  }

  // ---- Telemetry sink (JSONL, one line per epoch) ----
  // A fresh run truncates so stale lines from a previous run can't mix
  // into the new curve; a resume appends to keep one line per epoch
  // across the interruption.
  std::ofstream telemetry_out;
  if (!options_.telemetry_path.empty()) {
    telemetry_out.open(options_.telemetry_path,
                       start_epoch > 0 ? std::ios::app : std::ios::trunc);
    if (!telemetry_out) {
      return Status::IOError("cannot open telemetry file '" +
                             options_.telemetry_path + "' for writing");
    }
  }

  for (int64_t epoch = start_epoch; epoch < options_.epochs; ++epoch) {
    CROSSEM_TRACE_SPAN_V(epoch_span, "epoch");
    epoch_span.Arg("epoch", epoch);
    Timer epoch_timer;
    PeakMemoryScope mem_scope;

    // Epoch-start snapshot the divergence guard rolls back to. The RNG is
    // part of it so a retried epoch replays the same batch sequence.
    std::vector<Tensor> param_snapshot;
    param_snapshot.reserve(params.size());
    for (const Tensor& p : params) param_snapshot.push_back(p.Clone());
    const nn::Adam::State opt_snapshot = optimizer.ExportState();
    const std::string rng_snapshot = rng_.SaveState();

    int64_t retries = 0;
    EpochStats es;
    for (;;) {
      CROSSEM_RETURN_NOT_OK(RunEpochAttempt(vertices, image_bank, label_bank,
                                            proximity, &generator, &optimizer,
                                            params, &es));
      const int64_t attempted = es.num_batches + es.bad_batches;
      const bool diverged =
          attempted > 0 &&
          static_cast<float>(es.bad_batches) >
              options_.max_bad_batch_fraction * static_cast<float>(attempted);
      if (!diverged) break;

      // Roll back to the epoch-start snapshot; nothing of the failed
      // attempt survives.
      for (size_t i = 0; i < params.size(); ++i) {
        Tensor p = params[i];
        std::copy_n(param_snapshot[i].data(), param_snapshot[i].numel(),
                    p.data());
      }
      CROSSEM_RETURN_NOT_OK(optimizer.ImportState(opt_snapshot));
      CROSSEM_RETURN_NOT_OK(rng_.LoadState(rng_snapshot));
      if (retries >= options_.max_epoch_retries) {
        return Status::Internal(
            "epoch " + std::to_string(epoch) + " diverged (" +
            std::to_string(es.bad_batches) + "/" + std::to_string(attempted) +
            " batches with non-finite loss/gradients) after " +
            std::to_string(retries) + " retries; learning rate backed off to " +
            std::to_string(optimizer.learning_rate()) +
            "; parameters rolled back to the last good state");
      }
      ++retries;
      optimizer.set_learning_rate(0.5f * optimizer.learning_rate());
      CROSSEM_LOG(Warning) << "epoch " << epoch << " diverged ("
                           << es.bad_batches << "/" << attempted
                           << " bad batches); retry " << retries
                           << " with learning rate "
                           << optimizer.learning_rate();
    }
    es.retries = retries;
    es.learning_rate = optimizer.learning_rate();
    es.seconds = epoch_timer.ElapsedSeconds();
    es.peak_bytes = mem_scope.PeakBytes();
    stats.peak_bytes = std::max(stats.peak_bytes, es.peak_bytes);
    stats.epochs.push_back(es);

    if (telemetry_out.is_open()) {
      obs::EpochTelemetry t;
      t.epoch = epoch;
      t.loss = es.loss;
      t.grad_norm = es.grad_norm;
      t.learning_rate = es.learning_rate;
      t.num_batches = es.num_batches;
      t.num_pairs = es.num_pairs;
      t.bad_batches = es.bad_batches;
      t.retries = es.retries;
      t.peak_bytes = es.peak_bytes;
      t.seconds = es.seconds;
      t.batch_gen_seconds = es.batch_gen_seconds;
      t.encode_seconds = es.encode_seconds;
      t.score_seconds = es.score_seconds;
      t.backward_seconds = es.backward_seconds;
      t.optimizer_seconds = es.optimizer_seconds;
      telemetry_out << obs::EpochTelemetryJson(t) << '\n';
      telemetry_out.flush();  // each line survives a mid-training crash
      if (!telemetry_out) {
        return Status::IOError("failed writing telemetry to '" +
                               options_.telemetry_path + "'");
      }
    }

    if (checkpointing &&
        ((epoch + 1) % options_.checkpoint_every_epochs == 0 ||
         epoch + 1 == options_.epochs)) {
      CROSSEM_TRACE_SPAN("checkpoint");
      nn::TrainState train_state;
      train_state.next_epoch = epoch + 1;
      train_state.learning_rate = optimizer.learning_rate();
      train_state.optimizer = optimizer.ExportState();
      train_state.rng_state = rng_.SaveState();
      train_state.proximity = proximity;
      CROSSEM_RETURN_NOT_OK(nn::SaveTrainState(named_params, train_state,
                                               options_.checkpoint_path));
    }
  }
  stats.total_seconds = total_timer.ElapsedSeconds();
  return stats;
}

Status CrossEm::RunEpochAttempt(const std::vector<graph::VertexId>& vertices,
                                const Tensor& image_bank,
                                const Tensor& label_bank,
                                const Tensor& proximity,
                                MiniBatchGenerator* generator,
                                nn::Optimizer* optimizer,
                                const std::vector<Tensor>& params,
                                EpochStats* es) {
  *es = EpochStats{};
  const int64_t num_images = image_bank.size(0);

  // ---- Mini-batch construction (Alg. 1 line 3 / Alg. 2 + Alg. 3) ----
  Timer phase_timer;
  std::vector<MiniBatch> batches;
  if (options_.use_mini_batch_generation) {
    CROSSEM_ASSIGN_OR_RETURN(
        batches, generator->PartitionFromProximity(vertices, proximity, &rng_));
    if (options_.use_negative_sampling) {
      NegativeSampler sampler(options_.negative_sampling);
      batches =
          sampler.Apply(std::move(batches), proximity, vertices, &rng_);
    }
    // Cap contrastive batch sizes: split oversize partitions.
    std::vector<MiniBatch> sized;
    for (MiniBatch& mb : batches) {
      for (size_t vs = 0; vs < mb.vertices.size();
           vs += static_cast<size_t>(options_.batch_vertices)) {
        for (size_t is = 0; is < mb.image_indices.size();
             is += static_cast<size_t>(options_.batch_images)) {
          MiniBatch piece;
          piece.vertices.assign(
              mb.vertices.begin() + static_cast<int64_t>(vs),
              mb.vertices.begin() +
                  std::min(vs + static_cast<size_t>(options_.batch_vertices),
                           mb.vertices.size()));
          piece.image_indices.assign(
              mb.image_indices.begin() + static_cast<int64_t>(is),
              mb.image_indices.begin() +
                  std::min(is + static_cast<size_t>(options_.batch_images),
                           mb.image_indices.size()));
          sized.push_back(std::move(piece));
        }
      }
    }
    batches = std::move(sized);
  } else {
    // Random split of the full candidate-pair set V x I: every vertex
    // chunk is paired with every image chunk (the quadratic training
    // cost CrossEM+ avoids, Sec. III-C discussion).
    std::vector<graph::VertexId> vs = vertices;
    rng_.Shuffle(&vs);
    std::vector<int64_t> is(static_cast<size_t>(num_images));
    std::iota(is.begin(), is.end(), 0);
    rng_.Shuffle(&is);
    for (size_t v0 = 0; v0 < vs.size();
         v0 += static_cast<size_t>(options_.batch_vertices)) {
      for (size_t i0 = 0; i0 < is.size();
           i0 += static_cast<size_t>(options_.batch_images)) {
        MiniBatch mb;
        mb.vertices.assign(
            vs.begin() + static_cast<int64_t>(v0),
            vs.begin() +
                std::min(v0 + static_cast<size_t>(options_.batch_vertices),
                         vs.size()));
        mb.image_indices.assign(
            is.begin() + static_cast<int64_t>(i0),
            is.begin() +
                std::min(i0 + static_cast<size_t>(options_.batch_images),
                         is.size()));
        batches.push_back(std::move(mb));
      }
    }
  }

  es->batch_gen_seconds = phase_timer.ElapsedSeconds();

  // ---- Tuning steps (Alg. 1 lines 4-10) ----
  double epoch_loss = 0.0;
  double grad_norm_sum = 0.0;
  int64_t steps = 0;
  int64_t pairs = 0;
  int64_t bad = 0;
  for (const MiniBatch& mb : batches) {
    if (mb.vertices.empty() || mb.image_indices.empty()) continue;
    pairs += static_cast<int64_t>(mb.vertices.size()) *
             static_cast<int64_t>(mb.image_indices.size());

    // Image side: the batch's rows of the frozen tower's bank (no tape;
    // IndexSelect bounds-checks every index).
    phase_timer.Restart();
    Tensor image_emb;
    {
      CROSSEM_TRACE_SPAN("encode");
      image_emb = ops::IndexSelect(image_bank, mb.image_indices);
    }
    Tensor text_emb;
    {
      CROSSEM_TRACE_SPAN("encode");
      text_emb = EncodeVerticesForTraining(mb.vertices, label_bank);
    }
    es->encode_seconds += phase_timer.ElapsedSeconds();

    // Pseudo-positives X_p: the top-similarity pairs of the batch (paper
    // Sec. II-B: "X_p is collected from the pairs with top similarity";
    // the rest forms X_n). We take mutual nearest neighbors — (v, I)
    // where I is v's best image AND v is I's best vertex — which keeps
    // only confident pairs and avoids the drift of forcing a positive for
    // every vertex.
    phase_timer.Restart();
    std::vector<int64_t> confident_rows;
    std::vector<int64_t> confident_targets;
    Tensor loss;
    {
      CROSSEM_TRACE_SPAN("score");
      {
        NoGradGuard guard;
        Tensor sim = clip::ClipModel::SimilarityMatrix(text_emb.Detach(),
                                                       image_emb);
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
      if (!confident_rows.empty()) {
        Tensor selected_text = ops::IndexSelect(text_emb, confident_rows);
        loss = model_->ContrastiveLoss(selected_text, image_emb,
                                       confident_targets);
        if (options_.use_orthogonal_constraint && soft_gen_) {
          Tensor lo =
              OrthogonalPromptLoss(soft_gen_->PromptFeatures(mb.vertices));
          loss = CombinedLoss(loss, lo, options_.beta);
        }
      }
    }
    es->score_seconds += phase_timer.ElapsedSeconds();
    if (confident_rows.empty()) continue;  // no trustworthy pair

    optimizer->ZeroGrad();

    // Numeric guard: a batch whose loss or gradients are non-finite is
    // dropped before it can poison the parameters or the Adam moments.
    const float loss_value = loss.item();
    bool finite = std::isfinite(loss_value);
    float batch_grad_norm = 0.0f;
    if (finite) {
      phase_timer.Restart();
      {
        CROSSEM_TRACE_SPAN("backward");
        loss.Backward();
        batch_grad_norm = nn::ClipGradNorm(params, options_.grad_clip);
      }
      es->backward_seconds += phase_timer.ElapsedSeconds();
      finite = std::isfinite(batch_grad_norm);
    }
    if (!finite) {
      optimizer->ZeroGrad();
      ++bad;
      CROSSEM_LOG(Warning)
          << "skipping batch with non-finite loss/gradients (loss="
          << loss_value << ", " << mb.vertices.size() << " vertices x "
          << mb.image_indices.size() << " images)";
      continue;
    }
    phase_timer.Restart();
    optimizer->Step();  // carries its own "optimizer_step" span
    es->optimizer_seconds += phase_timer.ElapsedSeconds();
    epoch_loss += loss_value;
    grad_norm_sum += batch_grad_norm;
    ++steps;
  }

  es->loss = steps > 0 ? static_cast<float>(epoch_loss / steps) : 0.0f;
  es->grad_norm =
      steps > 0 ? static_cast<float>(grad_norm_sum / steps) : 0.0f;
  es->num_batches = steps;
  es->num_pairs = pairs;
  es->bad_batches = bad;
  return Status::OK();
}

}  // namespace core
}  // namespace crossem
