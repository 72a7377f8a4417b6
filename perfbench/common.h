// Shared pieces of the perfbench driver: run arguments, timing and
// statistics helpers, the result report, and the span aggregation that
// turns a traced run into per-layer self times.
#ifndef CROSSEM_PERFBENCH_COMMON_H_
#define CROSSEM_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Time one set-up, report it as setup_s and stop.
  bool setup_only = false;
  /// Directory for temporary files (index copies); inside the checkout.
  std::string scratch_dir;
  /// JSON of the tune workload's MRR / H@1 recorded per seed.
  std::string expected_path;
};

inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process CPU time (user + system, all threads), seconds.
double ProcessCpuSeconds();
/// CPU time of the calling thread, seconds.
double ThreadCpuSeconds();

/// Host-wide CPU time from /proc/stat: busy (user, nice, system, irq,
/// softirq) and steal, in clock ticks.
struct CpuTicks {
  int64_t busy = 0;
  int64_t steal = 0;
};
CpuTicks ReadCpuTicks();
/// Share of the time runnable vCPUs wanted that the hypervisor gave to
/// other guests between two readings: steal / (busy + steal).
double StealShare(const CpuTicks& from, const CpuTicks& to);
/// Peak resident set size of this process so far, MB (getrusage).
double PeakRssMb();

double Median(std::vector<double> values);
/// Exact nearest-rank percentile, q in [0, 1]; 0 for an empty sample.
double Percentile(std::vector<double> values, double q);

/// Collects a run's metrics and output checks and prints them: one
/// human-readable line per metric, then the one-line JSON result.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Records an output check; a failed check counts as a failed
  /// operation and makes the run incorrect.
  void Check(const std::string& name, bool ok, const std::string& detail);
  void AddAttempted(int64_t n) { attempted_ += n; }
  void AddFailed(int64_t n) { failed_ += n; }

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

  /// Prints the JSON result line with every recorded metric.
  void PrintJson() const;

 private:
  struct Value {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  bool correct_ = true;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// Per-name totals over the recorded spans of one traced phase. Self
/// time is a span's duration minus the union of its children's
/// intervals: process spans nest by thread and time, request spans by
/// their recorded parent ids.
struct SpanTotals {
  int64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
  /// For "gemm" spans: 2*m*n*k summed over calls (FLOPs from shapes).
  double flops = 0.0;
};
std::map<std::string, SpanTotals> AggregateSpans();

/// Runs `fn` `reps` times and returns the mean wall time per call, us.
template <typename Fn>
double MeanMicros(int64_t reps, Fn&& fn) {
  const double t0 = NowSeconds();
  for (int64_t i = 0; i < reps; ++i) fn();
  return (NowSeconds() - t0) * 1e6 / static_cast<double>(reps);
}

/// The roofline reference (roofline.cc): peak single-precision FMA
/// throughput over `threads` threads and a STREAM-style triad bandwidth.
double PeakFmaGflops(int threads);
double TriadGbps(int threads);

}  // namespace perfbench

#endif  // CROSSEM_PERFBENCH_COMMON_H_
