// Machine-readable perf tracking for the parallel runtime.
//
// The micro benches (bench_micro_tensor, bench_micro_pcp) time their hot
// kernels across a thread sweep and merge the results into
// BENCH_parallel.json so the perf trajectory is comparable across PRs.
// Each record is {op, size, threads, ns_per_iter, speedup}; speedup is
// measured against either the op's own 1-thread run or an explicitly
// provided reference (e.g. the pre-optimization scalar GEMM).
#ifndef CROSSEM_BENCH_PARALLEL_REPORT_H_
#define CROSSEM_BENCH_PARALLEL_REPORT_H_

#include <functional>
#include <string>
#include <vector>

namespace crossem {
namespace bench {

struct ParallelBenchRecord {
  std::string op;
  std::string size;
  int threads = 1;
  double ns_per_iter = 0.0;
  double speedup = 1.0;
};

/// Collects timing records and merges them into a JSON file.
class ParallelReport {
 public:
  /// Times `fn` once at `threads` workers and records it. `baseline_ns`
  /// (when > 0) is the reference for the speedup column; otherwise the
  /// record's own time is the baseline (speedup 1.0). Returns ns/iter.
  double Measure(const std::string& op, const std::string& size, int threads,
                 const std::function<void()>& fn, double baseline_ns = 0.0);

  /// Times `fn` at each thread count in order. The first count's time is
  /// the speedup baseline unless `baseline_ns` > 0 overrides it.
  void MeasureSweep(const std::string& op, const std::string& size,
                    const std::vector<int>& thread_counts,
                    const std::function<void()>& fn, double baseline_ns = 0.0);

  /// Appends a pre-built record (for derived quantities like the pool hit
  /// rate that are not plain timings).
  void AddRecord(ParallelBenchRecord record) {
    records_.push_back(std::move(record));
  }

  const std::vector<ParallelBenchRecord>& records() const { return records_; }

  /// Merges the collected records into the JSON document at `path`
  /// (overwriting records with the same op/size/threads key) and writes it
  /// back. Logs and returns false on I/O or parse failure.
  bool WriteJson(const std::string& path) const;

 private:
  std::vector<ParallelBenchRecord> records_;
};

/// Resolves a report output path: the value of `env_var` when set, else
/// `fallback` in the working directory.
std::string ReportPathFromEnv(const char* env_var, const char* fallback);

/// Output path for BENCH_parallel.json: the CROSSEM_BENCH_JSON env var, or
/// "BENCH_parallel.json" in the working directory.
std::string ParallelReportPath();

/// Output path for the fused-kernel / pool report: CROSSEM_BENCH_FUSED_JSON,
/// or "BENCH_fused.json" in the working directory.
std::string FusedReportPath();

}  // namespace bench
}  // namespace crossem

#endif  // CROSSEM_BENCH_PARALLEL_REPORT_H_
