// perfbench: one workload per process. run.py builds this binary, pins
// the thread count, and calls
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             --scratch DIR --expected FILE [--setup-only 1]
// The last stdout line is the JSON result (all metrics the run
// recorded); run.py selects the ones BENCHMARK.json names.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common.h"
#include "util/parallel.h"
#include "workloads.h"

namespace perfbench {

void ReportHostRoofline(Report* report) {
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  report->Metric("host.peak_gflops", PeakFmaGflops(cores), "GFLOP/s");
  report->Metric("host.peak_gflops_1t", PeakFmaGflops(1), "GFLOP/s");
  report->Metric("host.triad_gbps", TriadGbps(cores), "GB/s");
}

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--setup-only") {
      args.setup_only = value == "1";
    } else if (key == "--scratch") {
      args.scratch_dir = value;
    } else if (key == "--expected") {
      args.expected_path = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", key.c_str());
      return 2;
    }
  }
  std::printf("workload %s seed %llu seconds %.1f trace %d threads %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, crossem::GetNumThreads());
  perfbench::Report report;
  int rc = 2;
  if (args.workload == "tune") {
    rc = perfbench::RunTune(args, &report);
  } else if (args.workload == "serve_hot" || args.workload == "serve_scan") {
    rc = perfbench::RunServe(args, &report);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (rc != 0) return rc;
  report.PrintJson();
  return 0;
}
