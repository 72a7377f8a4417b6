// Microbenchmarks of the tensor/NN substrate (google-benchmark): matmul,
// softmax forward/backward, attention forward/backward. These quantify
// the engine the CrossEM results run on.
#include "bench/harness.h"
#include "bench/parallel_report.h"
#include "benchmark/benchmark.h"
#include "nn/attention.h"
#include "nn/layers.h"
#include "tensor/ops.h"
#include "tensor/pool.h"
#include "tensor/tensor.h"
#include "util/parallel.h"

namespace crossem {
namespace {

void BM_MatMul(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::Randn({n, n}, &rng);
  Tensor b = Tensor::Randn({n, n}, &rng);
  for (auto _ : state) {
    NoGradGuard guard;
    Tensor c = ops::MatMul(a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_SoftmaxForward(benchmark::State& state) {
  const int64_t rows = state.range(0);
  Rng rng(2);
  Tensor x = Tensor::Randn({rows, 64}, &rng);
  for (auto _ : state) {
    NoGradGuard guard;
    Tensor y = ops::Softmax(x);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_SoftmaxForward)->Arg(64)->Arg(512);

void BM_SoftmaxBackward(benchmark::State& state) {
  const int64_t rows = state.range(0);
  Rng rng(3);
  for (auto _ : state) {
    Tensor x = Tensor::Randn({rows, 64}, &rng);
    x.set_requires_grad(true);
    ops::Sum(ops::Softmax(x)).Backward();
    benchmark::DoNotOptimize(x.grad().data());
  }
}
BENCHMARK(BM_SoftmaxBackward)->Arg(64)->Arg(256);

void BM_AttentionForward(benchmark::State& state) {
  const int64_t seq = state.range(0);
  Rng rng(4);
  nn::MultiHeadAttention mha(32, 4, &rng);
  Tensor x = Tensor::Randn({4, seq, 32}, &rng);
  for (auto _ : state) {
    NoGradGuard guard;
    Tensor y = mha.ForwardSelf(x);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_AttentionForward)->Arg(16)->Arg(48);

void BM_AttentionBackward(benchmark::State& state) {
  const int64_t seq = state.range(0);
  Rng rng(5);
  nn::MultiHeadAttention mha(32, 4, &rng);
  for (auto _ : state) {
    Tensor x = Tensor::Randn({4, seq, 32}, &rng);
    x.set_requires_grad(true);
    ops::Sum(mha.ForwardSelf(x)).Backward();
    benchmark::DoNotOptimize(x.grad().data());
  }
}
BENCHMARK(BM_AttentionBackward)->Arg(16)->Arg(48);

void BM_LayerNormForward(benchmark::State& state) {
  Rng rng(6);
  nn::LayerNorm ln(64);
  Tensor x = Tensor::Randn({state.range(0), 64}, &rng);
  for (auto _ : state) {
    NoGradGuard guard;
    Tensor y = ln.Forward(x);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_LayerNormForward)->Arg(64)->Arg(512);

void EmitParallelReport() {
  bench::ParallelReport report;
  Rng rng(42);
  const std::vector<int> sweep = {1, 2, 4, 8};

  {
    // The seed repository's scalar kernel (kReference) is the fixed
    // baseline the gemm speedup column is measured against across PRs;
    // both sides run through ops::MatMul so tensor overhead cancels.
    const int64_t n = 256;
    Tensor a = Tensor::Randn({n, n}, &rng);
    Tensor b = Tensor::Randn({n, n}, &rng);
    auto matmul = [&] {
      NoGradGuard guard;
      Tensor out = ops::MatMul(a, b);
      benchmark::DoNotOptimize(out.data());
    };
    ops::SetGemmKernel(ops::GemmKernel::kReference);
    const double seed_ns =
        report.Measure("gemm_seed_scalar", "256x256x256", 1, matmul);
    ops::SetGemmKernel(ops::GemmKernel::kBlocked);
    report.MeasureSweep("gemm", "256x256x256", sweep, matmul, seed_ns);
  }
  {
    // trans_b layout (the similarity-matrix pattern V x I^T).
    const int64_t n = 256;
    Tensor a = Tensor::Randn({n, n}, &rng);
    Tensor bt = Tensor::Randn({n, n}, &rng);
    report.MeasureSweep("gemm_trans_b", "256x256x256", sweep, [&] {
      NoGradGuard guard;
      Tensor out = ops::MatMul(a, ops::Transpose(bt, 0, 1));
      benchmark::DoNotOptimize(out.data());
    });
  }
  {
    Tensor x = Tensor::Randn({4096, 256}, &rng);
    report.MeasureSweep("softmax_fwd", "4096x256", sweep, [&] {
      NoGradGuard guard;
      Tensor y = ops::Softmax(x);
      benchmark::DoNotOptimize(y.data());
    });
  }
  {
    Tensor x = Tensor::Randn({1 << 21}, &rng);
    report.MeasureSweep("sum_reduce", "2097152", sweep, [&] {
      NoGradGuard guard;
      Tensor s = ops::Sum(x);
      benchmark::DoNotOptimize(s.data());
    });
  }

  const std::string path = bench::ParallelReportPath();
  if (report.WriteJson(path)) {
    printf("wrote %zu parallel perf records to %s\n",
           report.records().size(), path.c_str());
  }
}

// Fused-kernel A/B (speedup column = reference ns / fused ns, both at one
// thread so graph overhead, not parallelism, is what's measured) plus the
// steady-state tensor-pool hit rate of a training loop.
void EmitFusedReport() {
  bench::ParallelReport report;
  Rng rng(43);

  {
    nn::LayerNorm ln(256);
    Tensor x = Tensor::Randn({512, 256}, &rng);
    auto fwd = [&] {
      NoGradGuard guard;
      Tensor y = ln.Forward(x);
      benchmark::DoNotOptimize(y.data());
    };
    ops::SetFusedKernels(ops::FusedKernels::kReference);
    const double ref_ns =
        report.Measure("layernorm_fwd_ref", "512x256", 1, fwd);
    ops::SetFusedKernels(ops::FusedKernels::kFused);
    report.Measure("layernorm_fwd", "512x256", 1, fwd, ref_ns);
  }
  {
    // The acceptance target: LayerNorm + scaled softmax through a full
    // forward+backward, fused vs the composed-op tape.
    nn::LayerNorm ln(256);
    Tensor x = Tensor::Randn({256, 256}, &rng);
    x.set_requires_grad(true);
    auto train = [&] {
      x.ZeroGrad();
      ln.ZeroGrad();
      Tensor h = ln.Forward(x);
      Tensor s;
      if (ops::GetFusedKernels() == ops::FusedKernels::kFused) {
        s = ops::ScaledMaskedSoftmax(h, 0.125f);
      } else {
        s = ops::Softmax(ops::MulScalar(h, 0.125f));
      }
      ops::Sum(s).Backward();
      benchmark::DoNotOptimize(x.grad().data());
    };
    ops::SetFusedKernels(ops::FusedKernels::kReference);
    const double ref_ns =
        report.Measure("ln_softmax_train_ref", "256x256", 1, train);
    ops::SetFusedKernels(ops::FusedKernels::kFused);
    report.Measure("ln_softmax_train", "256x256", 1, train, ref_ns);
  }
  {
    // Masked attention-score softmax, forward only.
    Tensor scores = Tensor::Randn({8, 4, 64, 64}, &rng);
    Tensor mask = Tensor::Ones({8, 64});
    float* mp = mask.data();
    for (int64_t i = 48; i < 64; ++i) mp[i] = 0.0f;  // pad batch 0's tail
    const float scale = 0.125f;
    auto ref = [&] {
      NoGradGuard guard;
      Tensor s = ops::MulScalar(scores, scale);
      Tensor bias =
          ops::MulScalar(ops::AddScalar(mask.Detach(), -1.0f), 1e9f);
      bias = ops::Reshape(bias, {8, 1, 1, 64});
      Tensor y = ops::Softmax(ops::Add(s, bias));
      benchmark::DoNotOptimize(y.data());
    };
    auto fused = [&] {
      NoGradGuard guard;
      Tensor y = ops::ScaledMaskedSoftmax(scores, scale, mask);
      benchmark::DoNotOptimize(y.data());
    };
    const double ref_ns =
        report.Measure("scaled_masked_softmax_ref", "8x4x64x64", 1, ref);
    report.Measure("scaled_masked_softmax", "8x4x64x64", 1, fused, ref_ns);
  }
  {
    Rng wrng(7);
    nn::Linear lin(256, 256, &wrng);
    Tensor x = Tensor::Randn({512, 256}, &rng);
    auto fwd = [&] {
      NoGradGuard guard;
      Tensor y = lin.Forward(x, ops::BiasAct::kGelu);
      benchmark::DoNotOptimize(y.data());
    };
    ops::SetFusedKernels(ops::FusedKernels::kReference);
    const double ref_ns = report.Measure("bias_gelu_ref", "512x256", 1, fwd);
    ops::SetFusedKernels(ops::FusedKernels::kFused);
    report.Measure("bias_gelu", "512x256", 1, fwd, ref_ns);
  }
  {
    // The path Fit and pre-training take: a recording bias+GELU forward
    // (which saves dGELU/dz) plus its backward into the pre-activation and
    // the bias, fused vs the composed Add + Gelu tape.
    Tensor x = Tensor::Randn({512, 256}, &rng);
    Tensor b = Tensor::Randn({256}, &rng);
    x.set_requires_grad(true);
    b.set_requires_grad(true);
    auto train = [&](bool fused) {
      x.ZeroGrad();
      b.ZeroGrad();
      Tensor y = fused ? ops::BiasActivation(x, b, ops::BiasAct::kGelu)
                       : ops::Gelu(ops::Add(x, b));
      ops::Sum(y).Backward();
      benchmark::DoNotOptimize(x.grad().data());
      benchmark::DoNotOptimize(b.grad().data());
    };
    const double ref_ns = report.Measure("bias_gelu_train_ref", "512x256", 1,
                                         [&] { train(false); });
    report.Measure("bias_gelu_train", "512x256", 1, [&] { train(true); },
                   ref_ns);
  }
  {
    // Steady-state pool behaviour of a realistic Fit step: a transformer
    // encoder forward+backward re-allocates the same activation and grad
    // shapes every step, so after warmup every Acquire should hit the
    // freelists. The hit rate rides in the speedup column.
    ops::SetFusedKernels(ops::FusedKernels::kFused);
    Rng wrng(8);
    nn::TransformerEncoder enc(2, 32, 4, 64, &wrng);
    Tensor x = Tensor::Randn({4, 16, 32}, &rng);
    x.set_requires_grad(true);
    auto step = [&] {
      x.ZeroGrad();
      enc.ZeroGrad();
      ops::Sum(enc.Forward(x)).Backward();
    };
    for (int i = 0; i < 5; ++i) step();  // warmup: populate the freelists
    auto& pool = internal::TensorPool::Instance();
    const int64_t hits0 = pool.hits();
    const int64_t misses0 = pool.misses();
    const double ns = report.Measure("fit_step_pooled", "2L_32d_4x16", 1, step);
    const int64_t dh = pool.hits() - hits0;
    const int64_t dm = pool.misses() - misses0;
    const double hit_rate =
        (dh + dm) > 0 ? static_cast<double>(dh) / static_cast<double>(dh + dm)
                      : (internal::TensorPool::Enabled() ? 0.0 : 1.0);
    bench::ParallelBenchRecord rec;
    rec.op = "fit_pool_hit_rate";
    rec.size = "2L_32d_4x16";
    rec.threads = 1;
    rec.ns_per_iter = ns;
    rec.speedup = hit_rate;  // rate, not a speedup; see check script
    report.AddRecord(rec);
  }
  ops::SetFusedKernels(ops::FusedKernels::kFused);

  const std::string path = bench::FusedReportPath();
  if (report.WriteJson(path)) {
    printf("wrote %zu fused perf records to %s\n", report.records().size(),
           path.c_str());
  }
}

}  // namespace
}  // namespace crossem

int main(int argc, char** argv) {
  crossem::EmitParallelReport();
  crossem::EmitFusedReport();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  crossem::bench::WriteTraceIfEnabled("BENCH_micro_tensor_trace.json");
  return 0;
}
