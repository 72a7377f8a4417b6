// The benchmark's workloads. Each runs in its own process, prints its
// metrics and checks through a Report, and returns the process exit
// code.
#ifndef CROSSEM_PERFBENCH_WORKLOADS_H_
#define CROSSEM_PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

/// Offline CrossEM+ prompt tuning (Fig. 8 FB10K-like world) followed by
/// all-pairs matching.
int RunTune(const Args& args, Report* report);

/// /v1/match over in-process HTTP: "serve_hot" (small f32 index, Zipf
/// popularity that the embedding cache absorbs) or "serve_scan" (large
/// int8 index over 4 shards, uniform popularity beyond the cache, with
/// snapshot hot-swaps under load).
int RunServe(const Args& args, Report* report);

/// Metrics every traced run reports for the host and the tracer.
void ReportHostRoofline(Report* report);

}  // namespace perfbench

#endif  // CROSSEM_PERFBENCH_WORKLOADS_H_
