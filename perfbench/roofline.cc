// Roofline reference for this host: peak single-precision FMA
// throughput and a STREAM-style triad bandwidth. Built with the host's
// full ISA (see CMakeLists.txt) so the peak is what the cores can do,
// whatever ISA the library under test was compiled for.
#include <algorithm>
#include <cstdint>
#include <thread>
#include <vector>

#include "common.h"

namespace perfbench {
namespace {

typedef float Vec16 __attribute__((vector_size(64)));
constexpr int kAccumulators = 12;  // enough to cover FMA latency x ports

// `sink` keeps the result observable so the loop is not folded away.
void FmaLoop(int64_t iters, float* sink) {
  Vec16 acc[kAccumulators];
  for (int j = 0; j < kAccumulators; ++j) acc[j] = Vec16{} + 0.5f + 0.01f * j;
  const Vec16 mul = Vec16{} + 0.999999f;
  const Vec16 add = Vec16{} + 1e-7f;
  for (int64_t i = 0; i < iters; ++i) {
    for (int j = 0; j < kAccumulators; ++j) acc[j] = acc[j] * mul + add;
  }
  float s = 0.0f;
  for (int j = 0; j < kAccumulators; ++j) {
    for (int l = 0; l < 16; ++l) s += acc[j][l];
  }
  *sink = s;
}

template <typename Fn>
double RunThreads(int threads, Fn&& fn) {
  std::vector<std::thread> pool;
  const double t0 = NowSeconds();
  for (int t = 0; t < threads; ++t) pool.emplace_back(fn, t);
  for (std::thread& th : pool) th.join();
  return NowSeconds() - t0;
}

}  // namespace

double PeakFmaGflops(int threads) {
  constexpr int64_t kIters = 4 * 1000 * 1000;
  std::vector<float> sinks(static_cast<size_t>(threads) * 16, 0.0f);
  double best = 0.0;
  for (int trial = 0; trial < 3; ++trial) {
    const double secs = RunThreads(threads, [&](int t) {
      FmaLoop(kIters, &sinks[static_cast<size_t>(t) * 16]);
    });
    const double flops = 2.0 * 16.0 * kAccumulators * kIters * threads;
    best = std::max(best, flops / secs * 1e-9);
  }
  return best;
}

double TriadGbps(int threads) {
  constexpr int64_t kN = int64_t{8} << 20;  // 3 x 32 MB, beyond the LLC
  std::vector<float> a(kN), b(kN, 1.0f), c(kN, 2.0f);
  const int64_t per = kN / threads;
  double best = 0.0;
  for (int trial = 0; trial < 5; ++trial) {
    const double secs = RunThreads(threads, [&](int t) {
      const int64_t lo = t * per;
      const int64_t hi = t + 1 == threads ? kN : lo + per;
      float* pa = a.data();
      const float* pb = b.data();
      const float* pc = c.data();
      for (int64_t i = lo; i < hi; ++i) pa[i] = pb[i] + 3.0f * pc[i];
    });
    best = std::max(best, 3.0 * sizeof(float) * kN / secs * 1e-9);
  }
  return best;
}

}  // namespace perfbench
