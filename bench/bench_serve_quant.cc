// Quantized serving benchmark (DESIGN.md §16): flat-scan throughput,
// memory footprint, and post-re-rank recall for every row format on the
// 30k x 32 clustered world, written to BENCH_serve_quant.json.
//
// One arm per QuantFormat {f32, f16, int8}. Each arm reports:
//   - bytes_per_entity: VectorBytes()/size() — payload blocks + scales,
//     the crossem_index_bytes numerator (acceptance: int8 <= 0.30x f32,
//     f16 <= 0.55x);
//   - qps: top-10 flat scans (quantized kernels + exact f32 re-rank of
//     the top rerank_k candidates for the non-f32 arms);
//   - qps_per_gb: qps / resident vector GB — the "serve more entities
//     per machine" figure of merit (acceptance: int8 >= 2x f32);
//   - recall_at_10 against the exact f32 scan (acceptance: >= 0.99 for
//     every arm; re-rank is what holds this while the scan runs on
//     compressed rows).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "serve/index.h"
#include "serve/quant.h"
#include "util/random.h"

namespace crossem {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Same mixture world as bench_serve's index arms: corpus and queries
// share cluster centers (one embedding space), queries use fresh noise
// at twice the spread.
Tensor ClusteredVectors(int64_t n, int64_t dim, uint64_t center_seed,
                        uint64_t noise_seed, float sigma,
                        int64_t clusters = 64) {
  Rng center_rng(center_seed);
  Tensor centers = Tensor::Randn({clusters, dim}, &center_rng, 1.0f);
  Rng rng(noise_seed);
  Tensor out = Tensor::Randn({n, dim}, &rng, sigma);
  float* o = out.data();
  const float* c = centers.data();
  for (int64_t i = 0; i < n; ++i) {
    const int64_t cl = rng.UniformInt(0, clusters - 1);
    for (int64_t d = 0; d < dim; ++d) o[i * dim + d] += c[cl * dim + d];
  }
  return out;
}

struct QuantArm {
  std::string format;
  double build_seconds = 0.0;
  double bytes_per_entity = 0.0;
  double bytes_ratio = 1.0;  // vs the f32 arm
  double qps = 0.0;
  double qps_per_gb = 0.0;
  double qps_ratio = 1.0;    // vs the f32 arm
  double recall_at_10 = 0.0;
};

std::vector<QuantArm> RunQuantArms(int64_t n, int64_t dim, int64_t reps) {
  std::printf("== quantized index: %lld vectors, dim %lld, %lldx%d queries ==\n",
              static_cast<long long>(n), static_cast<long long>(dim),
              static_cast<long long>(reps), 400);
  Tensor corpus = ClusteredVectors(n, dim, /*center_seed=*/101,
                                   /*noise_seed=*/101, /*sigma=*/0.25f);
  const int64_t num_queries = 400;
  const int64_t k = 10;
  Tensor queries = ClusteredVectors(num_queries, dim, /*center_seed=*/101,
                                    /*noise_seed=*/202, /*sigma=*/0.5f);
  std::vector<std::string> ids;
  for (int64_t i = 0; i < n; ++i) ids.push_back(std::to_string(i));

  // The exact f32 arm doubles as the recall oracle.
  std::vector<std::vector<eval::ScoredId>> exact(num_queries);
  std::vector<QuantArm> arms;
  for (const serve::quant::QuantFormat format :
       {serve::quant::QuantFormat::kF32, serve::quant::QuantFormat::kF16,
        serve::quant::QuantFormat::kInt8}) {
    QuantArm arm;
    arm.format = serve::quant::FormatName(format);
    serve::FlatIndex index(format);
    auto t0 = std::chrono::steady_clock::now();
    if (!index.Add(corpus, ids).ok()) std::abort();
    arm.build_seconds = SecondsSince(t0);
    arm.bytes_per_entity =
        static_cast<double>(index.VectorBytes()) / static_cast<double>(n);

    std::vector<std::vector<eval::ScoredId>> got(num_queries);
    t0 = std::chrono::steady_clock::now();
    for (int64_t rep = 0; rep < reps; ++rep) {
      for (int64_t qi = 0; qi < num_queries; ++qi) {
        got[qi] = index.Search(queries.data() + qi * dim, k);
        if (got[qi].empty()) std::abort();
      }
    }
    arm.qps = static_cast<double>(reps * num_queries) / SecondsSince(t0);
    arm.qps_per_gb =
        arm.qps / (static_cast<double>(index.VectorBytes()) / 1e9);

    if (format == serve::quant::QuantFormat::kF32) {
      exact = got;
      arm.recall_at_10 = 1.0;
    } else {
      int64_t found = 0;
      for (int64_t qi = 0; qi < num_queries; ++qi) {
        for (const auto& e : exact[qi]) {
          for (const auto& g : got[qi]) {
            if (g.id == e.id) {
              ++found;
              break;
            }
          }
        }
      }
      arm.recall_at_10 =
          static_cast<double>(found) / static_cast<double>(num_queries * k);
    }
    arms.push_back(arm);
  }
  // Ratios vs the f32 arm (index 0).
  for (QuantArm& arm : arms) {
    arm.bytes_ratio = arm.bytes_per_entity / arms[0].bytes_per_entity;
    arm.qps_ratio = arm.qps / arms[0].qps;
  }
  for (const QuantArm& a : arms) {
    std::printf(
        "  %-4s build %.2fs  %6.1f B/entity (%.3fx)  %7.0f qps (%.2fx)  "
        "%8.0f qps/GB  recall@10 %.4f\n",
        a.format.c_str(), a.build_seconds, a.bytes_per_entity, a.bytes_ratio,
        a.qps, a.qps_ratio, a.qps_per_gb, a.recall_at_10);
  }
  std::printf("  int8 qps/GB vs f32: %.2fx\n",
              arms[2].qps_per_gb / arms[0].qps_per_gb);
  return arms;
}

void WriteJson(const std::string& path, int64_t n, int64_t dim,
               const std::vector<QuantArm>& arms) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f,
               "{\n  \"world\": {\"n\": %lld, \"dim\": %lld},\n"
               "  \"quant\": [\n",
               static_cast<long long>(n), static_cast<long long>(dim));
  for (size_t i = 0; i < arms.size(); ++i) {
    const QuantArm& a = arms[i];
    std::fprintf(f,
                 "    {\"format\": \"%s\", \"build_seconds\": %.4f, "
                 "\"bytes_per_entity\": %.2f, \"bytes_ratio\": %.4f, "
                 "\"qps\": %.1f, \"qps_ratio\": %.4f, "
                 "\"qps_per_gb\": %.1f, \"recall_at_10\": %.4f}%s\n",
                 a.format.c_str(), a.build_seconds, a.bytes_per_entity,
                 a.bytes_ratio, a.qps, a.qps_ratio, a.qps_per_gb,
                 a.recall_at_10, i + 1 < arms.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace
}  // namespace crossem

int main(int argc, char** argv) {
  // --quick shrinks the corpus and repetitions for smoke runs; the
  // QPS/GB gap is host-dependent but the byte ratios and recall are not.
  int64_t n = 30000;
  int64_t reps = 3;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") {
      n = 6000;
      reps = 1;
    }
  }
  const char* env = std::getenv("CROSSEM_BENCH_JSON");
  const std::string path = env != nullptr ? env : "BENCH_serve_quant.json";
  auto arms = crossem::RunQuantArms(n, 32, reps);
  crossem::WriteJson(path, n, 32, arms);
  return 0;
}
