// crossem_match — command-line cross-modal entity matching.
//
// Maps relational CSV tables and JSON documents into the unified graph,
// loads an image repository given as patch-feature rows, and emits the
// matching set S as CSV.
//
// Usage:
//   crossem_match --table birds=birds.csv [--json extra.json]
//                 --images patches.csv [--output matches.csv]
//                 [--prompt hard|soft|baseline] [--epochs N]
//                 [--model model.ckpt] [--save-model model.ckpt]
//                 [--checkpoint train.ckpt] [--resume]
//                 [--checkpoint-every N]
//                 [--train-steps N] [--seed N]
//                 [--min-probability P] [--mutual]
//                 [--telemetry-out FILE.jsonl] [--trace-out FILE.json]
//
// Image file format: one patch per row,
//   image_id,f0,f1,...,f{D-1}
// rows sharing image_id form one image (patch counts are padded to the
// repository maximum with zero patches).
//
// Without --model, a small CLIP is trained on self-captions derived
// from the mapped graph paired with the given images of each entity
// (requires image_id values equal to entity labels, or entity labels
// prefixed: "<entity label>#<n>").
//
// --checkpoint names a resumable *training* checkpoint for the prompt
// tuning phase: Fit writes it every --checkpoint-every epochs, and with
// --resume an interrupted run picks up exactly where it left off
// (bit-for-bit identical to an uninterrupted run).
//
// Observability: --telemetry-out appends one JSON object per tuning
// epoch (loss, gradient norm, phase timing breakdown) to FILE.jsonl;
// --trace-out enables span tracing for the whole run and writes a
// Chrome trace_event JSON loadable in Perfetto / chrome://tracing.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/crossem.h"
#include "data/dataset.h"
#include "obs/trace.h"
#include "graph/data_mapping.h"
#include "graph/stats.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"
#include "tensor/ops.h"
#include "text/tokenizer.h"

namespace {

using namespace crossem;

struct Args {
  std::vector<std::pair<std::string, std::string>> tables;  // name, path
  std::vector<std::string> jsons;
  std::string images_path;
  std::string output_path;
  std::string model;
  std::string save_model;
  std::string checkpoint;
  bool resume = false;
  int64_t checkpoint_every = 1;
  std::string prompt = "hard";
  int64_t epochs = 4;
  int64_t train_steps = 200;
  uint64_t seed = 7;
  /// Drop pairs whose Eq. 4 matching probability falls below this.
  float min_probability = 0.0f;
  /// Keep only mutual nearest neighbours (high-precision subset).
  bool mutual = false;
  std::string telemetry_out;  // per-epoch JSONL training telemetry
  std::string trace_out;      // Chrome trace_event JSON (Perfetto)
};

void PrintUsage() {
  std::fprintf(stderr,
               "usage: crossem_match --table NAME=FILE.csv [--json FILE] "
               "--images FILE.csv\n"
               "       [--output FILE.csv] [--prompt hard|soft|baseline] "
               "[--epochs N]\n"
               "       [--model FILE] [--save-model FILE]\n"
               "       [--checkpoint FILE] [--resume] [--checkpoint-every N]\n"
               "       [--train-steps N] [--seed N]\n"
               "       [--min-probability P] [--mutual]\n"
               "       [--telemetry-out FILE.jsonl] [--trace-out FILE.json]\n");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    if (flag == "--table") {
      const char* v = next();
      if (v == nullptr) return false;
      std::string spec = v;
      size_t eq = spec.find('=');
      if (eq == std::string::npos) return false;
      args->tables.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
    } else if (flag == "--json") {
      const char* v = next();
      if (v == nullptr) return false;
      args->jsons.push_back(v);
    } else if (flag == "--images") {
      const char* v = next();
      if (v == nullptr) return false;
      args->images_path = v;
    } else if (flag == "--output") {
      const char* v = next();
      if (v == nullptr) return false;
      args->output_path = v;
    } else if (flag == "--model") {
      const char* v = next();
      if (v == nullptr) return false;
      args->model = v;
    } else if (flag == "--save-model") {
      const char* v = next();
      if (v == nullptr) return false;
      args->save_model = v;
    } else if (flag == "--checkpoint") {
      const char* v = next();
      if (v == nullptr) return false;
      args->checkpoint = v;
    } else if (flag == "--resume") {
      args->resume = true;
    } else if (flag == "--checkpoint-every") {
      const char* v = next();
      if (v == nullptr) return false;
      args->checkpoint_every = std::atoll(v);
    } else if (flag == "--prompt") {
      const char* v = next();
      if (v == nullptr) return false;
      args->prompt = v;
    } else if (flag == "--epochs") {
      const char* v = next();
      if (v == nullptr) return false;
      args->epochs = std::atoll(v);
    } else if (flag == "--train-steps") {
      const char* v = next();
      if (v == nullptr) return false;
      args->train_steps = std::atoll(v);
    } else if (flag == "--seed") {
      const char* v = next();
      if (v == nullptr) return false;
      args->seed = static_cast<uint64_t>(std::atoll(v));
    } else if (flag == "--min-probability") {
      const char* v = next();
      if (v == nullptr) return false;
      args->min_probability = static_cast<float>(std::atof(v));
    } else if (flag == "--mutual") {
      args->mutual = true;
    } else if (flag == "--telemetry-out") {
      const char* v = next();
      if (v == nullptr) return false;
      args->telemetry_out = v;
    } else if (flag == "--trace-out") {
      const char* v = next();
      if (v == nullptr) return false;
      args->trace_out = v;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  return !args->images_path.empty() &&
         (!args->tables.empty() || !args->jsons.empty());
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot read '" + path + "'");
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Entity label for an image id "<label>" or "<label>#<n>".
std::string EntityOfImageId(const std::string& id) {
  size_t hash = id.find('#');
  return hash == std::string::npos ? id : id.substr(0, hash);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    PrintUsage();
    return 2;
  }
  // Tracing covers everything from here on (pre-training, tuning,
  // matching); the file is written just before exit.
  if (!args.trace_out.empty()) obs::SetTraceEnabled(true);

  // -- Data mapping ------------------------------------------------------
  graph::GraphBuilder builder;
  for (const auto& [name, path] : args.tables) {
    auto text = ReadFile(path);
    if (!text.ok()) {
      std::fprintf(stderr, "%s\n", text.status().ToString().c_str());
      return 1;
    }
    auto table = graph::ParseCsv(name, text.value());
    if (!table.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(),
                   table.status().ToString().c_str());
      return 1;
    }
    if (auto st = builder.AddTable(table.value()); !st.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(), st.ToString().c_str());
      return 1;
    }
  }
  for (const std::string& path : args.jsons) {
    auto text = ReadFile(path);
    if (!text.ok()) {
      std::fprintf(stderr, "%s\n", text.status().ToString().c_str());
      return 1;
    }
    auto doc = graph::ParseJson(text.value());
    if (!doc.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(),
                   doc.status().ToString().c_str());
      return 1;
    }
    if (auto st = builder.AddJson(doc.value()); !st.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(), st.ToString().c_str());
      return 1;
    }
  }
  const graph::Graph& g = builder.graph();
  std::fprintf(stderr, "mapped graph: %s\n",
               graph::ComputeGraphStats(g).ToString().c_str());

  // -- Images ----------------------------------------------------------------
  auto repo = data::LoadImageRepositoryCsv(args.images_path);
  if (!repo.ok()) {
    std::fprintf(stderr, "%s\n", repo.status().ToString().c_str());
    return 1;
  }
  const data::ImageRepository& images = repo.value();
  const int64_t patch_dim = images.patches.size(2);
  std::fprintf(stderr, "images: %zu (up to %lld patches of dim %lld)\n",
               images.ids.size(),
               static_cast<long long>(images.patches.size(1)),
               static_cast<long long>(patch_dim));

  // -- Model -----------------------------------------------------------------
  text::Vocabulary vocab;
  for (const std::string& w : g.UniqueWords()) vocab.AddWord(w);
  for (const char* w : {"a", "photo", "of", "with", "and", "in"}) {
    vocab.AddWord(w);
  }
  clip::ClipConfig cc;
  cc.vocab_size = vocab.size();
  cc.text_context = 64;
  cc.patch_dim = patch_dim;
  cc.max_patches = images.patches.size(1) + 1;
  Rng rng(args.seed);
  clip::ClipModel model(cc, &rng);
  text::Tokenizer tokenizer(&vocab, cc.text_context);

  if (!args.model.empty()) {
    if (auto st = nn::LoadCheckpoint(&model, args.model); !st.ok()) {
      std::fprintf(stderr, "model: %s\n", st.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "loaded model %s\n", args.model.c_str());
  } else {
    // Self-supervised pre-training on (entity serialization, entity
    // image) pairs, when image ids name their entities.
    core::HardPromptOptions hp;
    core::HardPromptGenerator prompts(&g, hp);
    std::vector<std::pair<graph::VertexId, int64_t>> pairs;
    for (size_t img = 0; img < images.ids.size(); ++img) {
      graph::VertexId v = g.FindVertex(EntityOfImageId(images.ids[img]));
      if (v >= 0) pairs.emplace_back(v, static_cast<int64_t>(img));
    }
    if (pairs.empty()) {
      std::fprintf(stderr,
                   "no image ids match entity labels and no --model "
                   "given; cannot train\n");
      return 1;
    }
    std::fprintf(stderr, "training on %zu aligned (entity, image) pairs\n",
                 pairs.size());
    nn::AdamW opt(model.Parameters(), 3e-3f);
    for (int64_t step = 0; step < args.train_steps; ++step) {
      const int64_t batch =
          std::min<int64_t>(12, static_cast<int64_t>(pairs.size()));
      auto pick = rng.SampleWithoutReplacement(
          static_cast<int64_t>(pairs.size()), batch);
      std::vector<std::string> captions;
      std::vector<Tensor> patch_rows;
      for (int64_t k : pick) {
        captions.push_back(prompts.Generate(pairs[static_cast<size_t>(k)].first));
        const int64_t img = pairs[static_cast<size_t>(k)].second;
        patch_rows.push_back(ops::Reshape(
            ops::Slice(images.patches, 0, img, img + 1),
            {images.patches.size(1), patch_dim}));
      }
      Tensor te = model.text().Forward(tokenizer.EncodeBatch(captions));
      Tensor ie = model.image().Forward(ops::Stack(patch_rows));
      Tensor loss = model.ContrastiveLoss(te, ie);
      opt.ZeroGrad();
      loss.Backward();
      nn::ClipGradNorm(model.Parameters(), 5.0f);
      opt.Step();
    }
  }
  if (!args.save_model.empty()) {
    if (auto st = nn::SaveCheckpoint(model, args.save_model); !st.ok()) {
      std::fprintf(stderr, "save: %s\n", st.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "saved model %s\n", args.save_model.c_str());
  }

  // -- Matching -----------------------------------------------------------------
  core::CrossEmOptions options;
  if (args.prompt == "hard") {
    options.prompt_mode = core::PromptMode::kHard;
  } else if (args.prompt == "soft") {
    options.prompt_mode = core::PromptMode::kSoft;
  } else if (args.prompt == "baseline") {
    options.prompt_mode = core::PromptMode::kBaseline;
  } else {
    std::fprintf(stderr, "unknown --prompt '%s'\n", args.prompt.c_str());
    return 2;
  }
  options.epochs = args.epochs;
  options.seed = args.seed;
  options.checkpoint_path = args.checkpoint;
  options.resume = args.resume;
  options.checkpoint_every_epochs = args.checkpoint_every;
  options.telemetry_path = args.telemetry_out;
  core::CrossEm matcher(&model, &g, &tokenizer, options);
  std::vector<graph::VertexId> entities = builder.entity_vertices();
  if (auto fit = matcher.Fit(entities, images.patches); !fit.ok()) {
    std::fprintf(stderr, "fit: %s\n", fit.status().ToString().c_str());
    return 1;
  }
  auto matches =
      args.mutual ? matcher.FindMutualMatches(entities, images.patches)
                  : matcher.FindMatches(entities, images.patches,
                                        args.min_probability);
  if (args.mutual && args.min_probability > 0.0f) {
    // FindMutualMatches has no threshold parameter; both paths report
    // the Eq. 4 probability as the score, so filter uniformly here.
    matches.erase(std::remove_if(matches.begin(), matches.end(),
                                 [&](const core::MatchingPair& m) {
                                   return m.score < args.min_probability;
                                 }),
                  matches.end());
  }

  std::FILE* out = stdout;
  if (!args.output_path.empty()) {
    out = std::fopen(args.output_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write '%s'\n", args.output_path.c_str());
      return 1;
    }
  }
  std::fprintf(out, "entity,image_id,probability\n");
  for (const auto& m : matches) {
    std::fprintf(out, "%s,%s,%.6f\n", g.VertexLabel(m.vertex).c_str(),
                 images.ids[static_cast<size_t>(m.image)].c_str(), m.score);
  }
  if (out != stdout) std::fclose(out);
  std::fprintf(stderr, "wrote %zu matching pairs\n", matches.size());

  if (!args.trace_out.empty()) {
    if (!obs::WriteChromeTrace(args.trace_out)) {
      std::fprintf(stderr, "cannot write trace '%s'\n",
                   args.trace_out.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %lld trace spans to %s\n",
                 static_cast<long long>(obs::SpanCount()),
                 args.trace_out.c_str());
  }
  return 0;
}
